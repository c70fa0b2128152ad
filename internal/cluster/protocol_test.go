package cluster

import (
	"bytes"
	"context"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ebv/internal/bsp"
	"ebv/internal/graph"
	"ebv/internal/partition"
	"ebv/internal/transport"
)

// specialFloats are bit patterns only a verbatim codec returns unchanged:
// NaNs with payloads (quiet and signalling), both zeros, both infinities,
// subnormals of either sign.
var specialFloats = []float64{
	math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF4DEADBEEF0001),
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000FFFFFFFFFFFFF), 1.5,
}

// doneFixture is a one-partition graph with one local vertex per special
// float, and the value matrix of a worker returning them.
func doneFixture(t *testing.T) ([]*bsp.Subgraph, *graph.ValueMatrix) {
	t.Helper()
	subs := testSubs(t, testPathGraph(t, len(specialFloats)), 1)
	return subs, &graph.ValueMatrix{Width: 1, Data: specialFloats}
}

// TestDoneFrameBitExact drives a real coordinator with a scripted worker
// whose result rows are the special floats: what Run returns must carry
// the same bit patterns the worker sent.
func TestDoneFrameBitExact(t *testing.T) {
	const steps = 7
	subs, vals := doneFixture(t)
	tc := newTestCluster(t, subs, 5*time.Second)
	conn, err := net.Dial("tcp", tc.coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wmu sync.Mutex
	if err := writeMsg(&wmu, conn, msgHello, helloMsg{DataAddr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}

	// The scripted worker: take the shard, answer open, and on start
	// report the special floats as its final values.
	scriptErr := make(chan error, 1)
	go func() {
		scriptErr <- func() error {
			var job, attempt int
			for {
				typ, payload, err := readFrame(conn)
				if err != nil {
					return err
				}
				switch typ {
				case msgOpen:
					var m openMsg
					if err := decodeMsg(payload, &m); err != nil {
						return err
					}
					job, attempt = m.Job, m.Attempt
					if err := writeMsg(&wmu, conn, msgOpened, openedMsg{Job: m.Job, Attempt: m.Attempt}); err != nil {
						return err
					}
				case msgStart:
					return writeFrame(&wmu, conn, msgDone, encodeDone(job, attempt, 0, steps, vals))
				}
			}
		}()
	}()

	res, err := tc.coord.Run(context.Background(), JobSpec{App: "CC", MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-scriptErr; err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps || res.Values.Width != 1 || len(res.Values.Data) != len(specialFloats) {
		t.Fatalf("steps %d, width %d, %d values", res.Steps, res.Values.Width, len(res.Values.Data))
	}
	for i, want := range specialFloats {
		if got := res.Values.Data[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("value %d: bits %#x, want %#x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestDoneFrameShapeChecked: a frame whose shape does not match the
// partition's subgraph is refused before its values are decoded.
func TestDoneFrameShapeChecked(t *testing.T) {
	subs, vals := doneFixture(t)
	if got, err := decodeDone(encodeDone(1, 1, 0, 7, vals), subs); err != nil || len(got.values) != len(specialFloats) {
		t.Fatalf("valid frame: %d values, %v", len(got.values), err)
	}
	matrix := func(width int, data []float64) *graph.ValueMatrix {
		return &graph.ValueMatrix{Width: width, Data: data}
	}
	for name, frame := range map[string][]byte{
		"part-out-of-range": encodeDone(1, 1, 1, 7, vals),
		"part-negative":     encodeDone(1, 1, -1, 7, vals),
		"missing-row":       encodeDone(1, 1, 0, 7, matrix(1, specialFloats[1:])),
		"extra-row":         encodeDone(1, 1, 0, 7, matrix(1, append(specialFloats[:1:1], specialFloats...))),
		"zero-width":        encodeDone(1, 1, 0, 7, matrix(0, specialFloats)),
		"oversized-width":   encodeDone(1, 1, 0, 7, matrix(transport.MaxValueWidth+1, nil)),
		// Right byte count, wrong split: 3 rows × width 3 for a 9-vertex part.
		"rows-traded-for-width": encodeDone(1, 1, 0, 7, matrix(3, specialFloats)),
	} {
		if _, err := decodeDone(frame, subs); err == nil || !strings.HasPrefix(err.Error(), "cluster:") {
			t.Errorf("%s: err = %v, want a cluster: error", name, err)
		}
	}
}

// TestDoneFrameDamageSweep: a done payload cut at every prefix length is a
// cluster: error, and a done frame as it crosses the wire — sealed in its
// control frame — with any single bit flipped, or cut anywhere, is refused
// by the frame layer or by decodeDone: never a panic, never accepted.
func TestDoneFrameDamageSweep(t *testing.T) {
	subs, vals := doneFixture(t)
	payload := encodeDone(1, 1, 0, 7, vals)
	for n := 0; n < len(payload); n++ {
		if _, err := decodeDone(payload[:n], subs); err == nil || !strings.HasPrefix(err.Error(), "cluster:") {
			t.Fatalf("payload cut to %d of %d bytes: err = %v, want a cluster: error", n, len(payload), err)
		}
	}

	frame := encodeFrame(t, msgDone, payload)
	read := func(wire []byte) error {
		_, payload, err := readFrame(bytes.NewReader(wire))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "cluster:") {
				t.Fatalf("frame error not attributed: %v", err)
			}
			return err
		}
		_, err = decodeDone(payload, subs)
		return err
	}
	if err := read(frame); err != nil {
		t.Fatalf("intact frame: %v", err)
	}
	for n := 0; n < len(frame); n++ {
		if read(frame[:n]) == nil {
			t.Fatalf("frame cut to %d of %d bytes accepted", n, len(frame))
		}
	}
	for bit := 0; bit < 8*len(frame); bit++ {
		flipped := bytes.Clone(frame)
		flipped[bit/8] ^= 1 << (bit % 8)
		if read(flipped) == nil {
			t.Fatalf("frame with bit %d flipped accepted", bit)
		}
	}
}

// TestOpenCarriesLinks drives a real coordinator with scripted workers and
// records what each open carries over a PR, a CC and a second CC job:
// nothing for PR, which builds no link table, exactly
// bsp.ComponentLinks(subs)[p] to the owner of partition p on the first CC
// open, and nothing on the second, whose agent keeps the first's.
// Partition 2 shares no vertex, so its share is the empty table, which gob
// must deliver as one and not as nil.
func TestOpenCarriesLinks(t *testing.T) {
	g, err := graph.New(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}})
	if err != nil {
		t.Fatal(err)
	}
	subs, err := bsp.BuildSubgraphs(g, &partition.Assignment{K: 3, Parts: []int32{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	tc := newTestCluster(t, subs, 5*time.Second)
	opens := make([][]*bsp.Links, len(subs)) // by partition, one entry per open
	conns := make([]net.Conn, len(subs))
	var wg sync.WaitGroup
	for p, sub := range subs {
		conn, err := net.Dial("tcp", tc.coord.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var wmu sync.Mutex
		if err := writeMsg(&wmu, conn, msgHello, helloMsg{DataAddr: "127.0.0.1:1"}); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); tc.coord.NumRegistered() < p+1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("scripted worker %d did not register", p)
			}
		}
		conns[p] = conn
		// Each vertex's value is its id, so the replicas agree.
		vals := &graph.ValueMatrix{Width: 1}
		for _, gid := range sub.GlobalIDs {
			vals.Data = append(vals.Data, float64(gid))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var job, attempt int
			for {
				typ, payload, err := readFrame(conn)
				if err != nil {
					return
				}
				switch typ {
				case msgOpen:
					var m openMsg
					if decodeMsg(payload, &m) != nil {
						return
					}
					job, attempt, opens[p] = m.Job, m.Attempt, append(opens[p], m.Links)
					_ = writeMsg(&wmu, conn, msgOpened, openedMsg{Job: job, Attempt: attempt})
				case msgStart:
					_ = writeFrame(&wmu, conn, msgDone, encodeDone(job, attempt, p, 1, vals))
				}
			}
		}()
	}
	for _, app := range []string{"PR", "CC", "CC"} {
		if _, err := tc.coord.Run(context.Background(), JobSpec{App: app, MaxAttempts: 1}); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
	}
	for _, conn := range conns {
		_ = conn.Close()
	}
	wg.Wait()
	want := bsp.ComponentLinks(subs)
	for p := range subs {
		if len(opens[p]) != 3 || opens[p][0] != nil || !reflect.DeepEqual(opens[p][1], want[p]) || opens[p][2] != nil {
			t.Errorf("partition %d: opens carried %v, want none for PR, %+v for the first CC, none for the second", p, opens[p], want[p])
		}
	}
}
