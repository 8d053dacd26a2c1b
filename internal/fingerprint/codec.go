package fingerprint

import (
	"encoding/json"
	"fmt"
	"io"

	"divot/internal/signal"
)

// The paper stores enrolled fingerprints in each endpoint's EPROM (§III) and
// argues their secrecy is not critical — an IIP is useless away from its own
// line. This codec is that EPROM image: a plain, versioned JSON encoding of
// the raw fingerprint waveform. The comparison view is rebuilt from the
// pipeline on load, so stored images survive pipeline-mode upgrades.

// codecVersion guards against silently decoding incompatible images.
const codecVersion = 1

// iipImage is the serialized form of one fingerprint.
type iipImage struct {
	Version int       `json:"version"`
	Rate    float64   `json:"rate"`
	Samples []float64 `json:"samples"`
}

// Encode writes the fingerprint to w.
func (f IIP) Encode(w io.Writer) error {
	if !f.Valid() {
		return fmt.Errorf("fingerprint: encoding invalid fingerprint")
	}
	return json.NewEncoder(w).Encode(iipImage{
		Version: codecVersion,
		Rate:    f.Raw.Rate,
		Samples: f.Raw.Samples,
	})
}

// DecodeIIP reads a fingerprint from r and rebuilds its comparison view with
// the given pipeline. Smoothing is not re-applied: the stored waveform is
// already the post-pipeline Raw view.
func DecodeIIP(r io.Reader, p Pipeline) (IIP, error) {
	var img iipImage
	if err := json.NewDecoder(r).Decode(&img); err != nil {
		return IIP{}, fmt.Errorf("fingerprint: decoding: %w", err)
	}
	return imageToIIP(img, p)
}

func imageToIIP(img iipImage, p Pipeline) (IIP, error) {
	if img.Version != codecVersion {
		return IIP{}, fmt.Errorf("fingerprint: image version %d, want %d", img.Version, codecVersion)
	}
	if img.Rate <= 0 || len(img.Samples) == 0 {
		return IIP{}, fmt.Errorf("fingerprint: corrupt image (rate %v, %d samples)",
			img.Rate, len(img.Samples))
	}
	// Rebuild without smoothing: Raw is stored post-smoothing.
	noSmooth := p
	noSmooth.SmoothSigmaBins = 0
	return noSmooth.FromWaveform(signal.FromSamples(img.Rate, img.Samples)), nil
}
