package live

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestGoldenLiveAssignments pins the three online policies bit for bit:
// SHA-256 over Snapshot()'s Parts (little-endian int32) after 12 batches of
// 300 seeded mixed inserts and deletes on an EBV-prepared graph, as produced
// by commit b2465ad, when each policy still probed a live.View. k=70 needs
// two membership words per vertex.
func TestGoldenLiveAssignments(t *testing.T) {
	g := liveGraph(t, 2000, 12000, 7)
	seen := 0
	for _, name := range []string{"ebv", "hdrf", "fennel"} {
		for _, k := range []int{3, 8, 70} {
			key := fmt.Sprintf("%s/k=%d", name, k)
			policy, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			st, swap := buildLive(t, g, k, Config{Policy: policy})
			rng := splitmix64(21)
			for i, batch := range randomStream(st, &rng, 12, 300) {
				if _, err := st.Apply(context.Background(), batch, swap); err != nil {
					t.Fatalf("%s: batch %d: %v", key, i, err)
				}
			}
			_, a, _ := st.Snapshot()
			buf := make([]byte, 0, 4*len(a.Parts))
			for _, p := range a.Parts {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
			}
			sum := sha256.Sum256(buf)
			seen++
			if got := hex.EncodeToString(sum[:]); got != goldenLiveAssignments[key] {
				t.Errorf("%q: %q, golden %q", key, got, goldenLiveAssignments[key])
			}
		}
	}
	if seen != len(goldenLiveAssignments) {
		t.Errorf("checked %d cells, table has %d", seen, len(goldenLiveAssignments))
	}
}

var goldenLiveAssignments = map[string]string{
	"ebv/k=3":     "b2a19584c14b886ed965dc9f4aaff04b8fe35445870ae7a51859a4590a6f9733",
	"ebv/k=8":     "28494e1786d5c08d2fbdb6e8cdbc2290b8c055a383d71650fea31022cfdc565c",
	"ebv/k=70":    "99bb49a3cffa702b1e441f64cefef92b38780a100cfe207798a087b56781ed6b",
	"hdrf/k=3":    "ddb56ce0be3972f1b8cb55bef8d5c5f9f401a75f296644e2e30be2c17637b401",
	"hdrf/k=8":    "d63f5c009141260a440d9206e51dffc659dfd1e5550a9463da74bb36b46e55d2",
	"hdrf/k=70":   "122c853f610d9d8d1fa39e7cd69f9696bb820b62cd004d4b00bcb60cc071be70",
	"fennel/k=3":  "22b67f6940c2bc848122f3958eb6f5aae21b5c007af65fe96fc399b6c0af1750",
	"fennel/k=8":  "e2999fb01f885d068cb62d4cfd00a6b62bb83ef3f67a286c7c8190d5912589cd",
	"fennel/k=70": "0c07863c4fa2b0c498be100e1c6648032fe225b818a4001832e30b29cf80dd00",
}
