package multi

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// FuzzLoadFrom drives LoadFrom with arbitrary fleet files: a fleet file
// is input from outside the program. The properties under test are that
// it never panics, and that a fleet it accepts saves and loads again to
// the same streams and charge. The header's budget is capped at 1<<16
// slots so that no one input builds reservoirs large enough to slow the
// fuzzer to a crawl; the budget is checked before anything is built, so
// the cap leaves every decode and check path reachable.
func FuzzLoadFrom(f *testing.F) {
	golden, err := os.ReadFile(goldenFleet)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:32])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 16 && binary.LittleEndian.Uint64(data[8:]) > 1<<16 {
			data = append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(data[8:], 1<<16)
		}
		m, err := LoadFrom(bytes.NewReader(data), 1)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.SaveTo(&buf); err != nil {
			t.Fatalf("saving a loaded fleet: %v", err)
		}
		again, err := LoadFrom(&buf, 1)
		if err != nil {
			t.Fatalf("loading a saved fleet: %v", err)
		}
		if again.Len() != m.Len() || again.Used() != m.Used() || again.Budget() != m.Budget() {
			t.Fatalf("reloaded fleet has %d streams, %d of %d slots; saved %d, %d of %d",
				again.Len(), again.Used(), again.Budget(), m.Len(), m.Used(), m.Budget())
		}
	})
}
