package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"hopp/internal/workload"
)

// The served workload catalog is pinned at both scales: every name's
// generator name, footprint and access count, plus a hash of its
// quick-scale seed-1 access stream. A resized workload, a changed quick
// rule or a catalog entry pointing at the wrong constructor shows up
// here as a diff, whichever package owns the table.
func TestWorkloadCatalogGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range WorkloadNames() {
		for _, quick := range []bool{true, false} {
			gen, ok := NewWorkload(name, quick)
			if !ok {
				t.Fatalf("catalog name %q does not construct", name)
			}
			counted, ok := gen.(interface{ TotalAccesses() int })
			if !ok {
				t.Fatalf("%s: generator %T does not report TotalAccesses", name, gen)
			}
			scale := "full"
			if quick {
				scale = "quick"
			}
			fmt.Fprintf(&buf, "%-13s %-5s name=%s footprint=%d accesses=%d",
				name, scale, gen.Name(), gen.FootprintPages(), counted.TotalAccesses())
			if quick {
				fmt.Fprintf(&buf, " seed1=%016x", streamHash(gen, 1))
			}
			buf.WriteByte('\n')
		}
	}
	const golden = "testdata/workload_catalog.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/service -run WorkloadCatalogGolden -update` to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("workload catalog diverged from golden:\n got %s\nwant %s", buf.Bytes(), want)
	}
}

// streamHash is an FNV-64a digest of gen's full access stream at seed.
func streamHash(gen workload.Generator, seed int64) uint64 {
	h := fnv.New64a()
	var rec [17]byte
	gen.Reset(seed)
	for {
		a, ok := gen.Next()
		if !ok {
			return h.Sum64()
		}
		binary.LittleEndian.PutUint64(rec[0:], uint64(a.Addr))
		binary.LittleEndian.PutUint64(rec[8:], uint64(a.Think))
		rec[16] = 0
		if a.Write {
			rec[16] = 1
		}
		h.Write(rec[:])
	}
}
