package memctl

import (
	"testing"

	"divot/internal/sim"
)

func newMapper(t *testing.T, p MapPolicy) Mapper {
	t.Helper()
	m, err := NewMapper(DefaultGeometry(), p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapperBijection(t *testing.T) {
	// Map is injective: no two burst-aligned addresses share coordinates.
	for _, p := range []MapPolicy{MapRowMajor, MapBankInterleaved} {
		m := newMapper(t, p)
		burst := int64(DefaultGeometry().BurstBytes)
		n := min(m.Capacity()/burst, 1<<16)
		seen := make(map[Address]int64, n)
		for i := int64(0); i < n; i++ {
			coords, err := m.Map(i * burst)
			if err != nil {
				t.Fatalf("%v: Map(%d): %v", p, i*burst, err)
			}
			if prev, dup := seen[coords]; dup {
				t.Fatalf("%v: addresses %d and %d both map to %+v", p, prev, i*burst, coords)
			}
			seen[coords] = i * burst
		}
	}
}

func TestMapperValidation(t *testing.T) {
	m := newMapper(t, MapRowMajor)
	if _, err := m.Map(-64); err == nil {
		t.Error("negative address accepted")
	}
	if _, err := m.Map(m.Capacity()); err == nil {
		t.Error("out-of-capacity address accepted")
	}
	if _, err := m.Map(1); err == nil {
		t.Error("unaligned address accepted")
	}
	if _, err := NewMapper(Geometry{}, MapRowMajor); err == nil {
		t.Error("bad geometry accepted")
	}
	if MapRowMajor.String() != "row-major" || MapBankInterleaved.String() != "bank-interleaved" ||
		MapPolicy(9).String() == "" {
		t.Error("policy names")
	}
}

func TestMapperSequentialLocality(t *testing.T) {
	geom := DefaultGeometry()
	rm := newMapper(t, MapRowMajor)
	bi := newMapper(t, MapBankInterleaved)
	// Row-major: the first Cols bursts stay in bank 0 / row 0.
	for i := 0; i < geom.Cols; i++ {
		a, err := rm.Map(int64(i * geom.BurstBytes))
		if err != nil {
			t.Fatal(err)
		}
		if a.Bank != 0 || a.Row != 0 {
			t.Fatalf("row-major burst %d at %v", i, a)
		}
	}
	// Bank-interleaved: the first Banks bursts each land in a new bank.
	seen := map[int]bool{}
	for i := 0; i < geom.Banks; i++ {
		a, err := bi.Map(int64(i * geom.BurstBytes))
		if err != nil {
			t.Fatal(err)
		}
		if seen[a.Bank] {
			t.Fatalf("bank %d reused within the first %d bursts", a.Bank, geom.Banks)
		}
		seen[a.Bank] = true
	}
}

func TestMappingPolicyChangesPerformanceByStride(t *testing.T) {
	// Row-sized strides: row-major rotates banks (parallel activates),
	// bank-interleaved hammers one bank (serialized row conflicts).
	geom := DefaultGeometry()
	stride := int64(geom.Cols * geom.BurstBytes)
	run := func(p MapPolicy) sim.Time {
		h := newHarness(t, DefaultControllerConfig(), nil, nil)
		m, err := NewMapper(geom, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 24; i++ {
			addr, err := m.Map(i * stride)
			if err != nil {
				t.Fatal(err)
			}
			h.submit(OpRead, addr, nil)
		}
		h.sched.Run(1 << 22)
		if len(h.resps) != 24 {
			t.Fatalf("%v: completed %d/24", p, len(h.resps))
		}
		return h.sched.Now()
	}
	rowMajor := run(MapRowMajor)
	interleaved := run(MapBankInterleaved)
	if rowMajor*2 > interleaved {
		t.Errorf("row-sized strides: row-major (%v) should be far faster than bank-interleaved (%v)",
			rowMajor, interleaved)
	}
}
