package memctl

import "fmt"

// MapPolicy selects how linear physical addresses spread over the DRAM
// organization — the knob that decides whether a given access pattern turns
// into row hits, bank parallelism, or bank hammering.
type MapPolicy int

const (
	// MapRowMajor places consecutive bursts along a row, then walks banks,
	// then rows: sequential streams maximize row hits, and row-sized
	// strides rotate across banks.
	MapRowMajor MapPolicy = iota
	// MapBankInterleaved rotates consecutive bursts across banks first:
	// sequential streams exercise all banks in parallel, but row-sized
	// strides land repeatedly in one bank.
	MapBankInterleaved
)

// String names the policy.
func (p MapPolicy) String() string {
	switch p {
	case MapRowMajor:
		return "row-major"
	case MapBankInterleaved:
		return "bank-interleaved"
	}
	return fmt.Sprintf("MapPolicy(%d)", int(p))
}

// Mapper translates linear byte addresses to DRAM coordinates.
type Mapper struct {
	geom   Geometry
	policy MapPolicy
}

// NewMapper builds a mapper over the geometry.
func NewMapper(geom Geometry, policy MapPolicy) (Mapper, error) {
	if err := geom.Validate(); err != nil {
		return Mapper{}, err
	}
	return Mapper{geom: geom, policy: policy}, nil
}

// Capacity returns the addressable bytes.
func (m Mapper) Capacity() int64 {
	return int64(m.geom.Banks) * int64(m.geom.Rows) * int64(m.geom.Cols) * int64(m.geom.BurstBytes)
}

// Map translates a burst-aligned byte address.
func (m Mapper) Map(byteAddr int64) (Address, error) {
	if byteAddr < 0 || byteAddr >= m.Capacity() {
		return Address{}, fmt.Errorf("memctl: address %#x outside capacity %#x", byteAddr, m.Capacity())
	}
	if byteAddr%int64(m.geom.BurstBytes) != 0 {
		return Address{}, fmt.Errorf("memctl: address %#x not burst-aligned", byteAddr)
	}
	b := byteAddr / int64(m.geom.BurstBytes)
	switch m.policy {
	case MapBankInterleaved:
		return Address{
			Bank: int(b % int64(m.geom.Banks)),
			Col:  int(b / int64(m.geom.Banks) % int64(m.geom.Cols)),
			Row:  int(b / int64(m.geom.Banks) / int64(m.geom.Cols)),
		}, nil
	default:
		return Address{
			Col:  int(b % int64(m.geom.Cols)),
			Bank: int(b / int64(m.geom.Cols) % int64(m.geom.Banks)),
			Row:  int(b / int64(m.geom.Cols) / int64(m.geom.Banks)),
		}, nil
	}
}
