package noc

import (
	"math"
	"reflect"
	"testing"

	"locmap/internal/topology"
)

// sameState fails the test unless the two networks agree on every
// link's busy-until time, every link load and the aggregate stats.
func sameState(t *testing.T, got, want *Network) {
	t.Helper()
	if !reflect.DeepEqual(got.busyUntil, want.busyUntil) {
		t.Errorf("busy-until state differs:\n got  %v\n want %v", got.busyUntil, want.busyUntil)
	}
	if !reflect.DeepEqual(got.LinkLoads(), want.LinkLoads()) {
		t.Error("link loads differ")
	}
	if got.Stats() != want.Stats() {
		t.Errorf("stats differ:\n got  %+v\n want %+v", got.Stats(), want.Stats())
	}
}

// TestShardViewSingleViewMatchesSend: one view driven window by window
// (BeginWindow, sends, Fold) must reproduce Network.Send's per-packet
// timeline and final state bit-for-bit, which is why a one-region
// simulation equals a plain sequential run.
func TestShardViewSingleViewMatchesSend(t *testing.T) {
	ref, n := net(), net()
	v := n.NewShardView()
	nodes := uint64(n.Mesh.NumNodes())
	h := uint64(1)
	start := int64(0)
	for w := 0; w < 8; w++ {
		v.BeginWindow()
		for i := 0; i < 40; i++ {
			h = h*6364136223846793005 + 1442695040888963407
			src := topology.NodeID(h >> 33 % nodes)
			dst := topology.NodeID(h >> 17 % nodes)
			class := PacketClass(h >> 60 & 1)
			at := start + int64(h>>40%64)
			if got, want := v.Send(src, dst, at, class), ref.Send(src, dst, at, class); got != want {
				t.Fatalf("window %d packet %d (%d->%d at %d): view arrival %d, Send arrival %d", w, i, src, dst, at, got, want)
			}
		}
		v.Fold()
		start += 64
	}
	v.FlushStats()
	sameState(t, n, ref)
}

// TestShardViewFoldOrder: two views reserving one link in the same
// window do not see each other; folding merges them as
// C = max(val, C+occ) in fold order, so a later view's packets queue
// behind an earlier view's occupancy.
func TestShardViewFoldOrder(t *testing.T) {
	// 0->1 is a single link; one hop costs 4 cycles, a Data packet
	// occupies it for 5 and a Request for 1.
	fold := func(sends func(a, b *ShardView), order ...int) int64 {
		n := net()
		views := []*ShardView{n.NewShardView(), n.NewShardView()}
		for _, v := range views {
			v.BeginWindow()
		}
		sends(views[0], views[1])
		for _, i := range order {
			views[i].Fold()
		}
		return n.busyUntil[n.routes.Route(0, 1)[0]]
	}
	same := func(a, b *ShardView) {
		if ta, tb := a.Send(0, 1, 0, Data), b.Send(0, 1, 0, Data); ta != 4 || tb != 4 {
			t.Errorf("same-window views should not see each other: arrivals %d, %d, want 4, 4", ta, tb)
		}
	}
	// Each view alone leaves the link busy until 9; the second fold
	// appends its 5 cycles of occupancy: max(9, 9+5).
	if got := fold(same, 0, 1); got != 14 {
		t.Errorf("identical same-window packets folded to %d, want 14", got)
	}
	mixed := func(a, b *ShardView) {
		a.Send(0, 1, 0, Data)      // val 9, occ 5
		b.Send(0, 1, 100, Request) // val 105, occ 1
	}
	// Order a, b: max(9, 0+5) = 9, then max(105, 9+1) = 105.
	if got := fold(mixed, 0, 1); got != 105 {
		t.Errorf("fold a then b = %d, want 105", got)
	}
	// Order b, a: max(105, 0+1) = 105, then max(9, 105+5) = 110.
	if got := fold(mixed, 1, 0); got != 110 {
		t.Errorf("fold b then a = %d, want 110", got)
	}
}

// TestShardViewEpochWrap: when the window epoch counter wraps,
// BeginWindow must invalidate every stamp, so no link looks touched in
// the new window — neither one stamped long ago nor one never touched.
func TestShardViewEpochWrap(t *testing.T) {
	ref, n := net(), net()
	v := n.NewShardView()
	m := n.Mesh
	a, b := m.NodeAt(topology.Coord{X: 0, Y: 0}), m.NodeAt(topology.Coord{X: 1, Y: 0})
	c, d := m.NodeAt(topology.Coord{X: 0, Y: 1}), m.NodeAt(topology.Coord{X: 1, Y: 1})
	e, f := m.NodeAt(topology.Coord{X: 0, Y: 2}), m.NodeAt(topology.Coord{X: 1, Y: 2})
	check := func(src, dst topology.NodeID, at int64, class PacketClass) {
		t.Helper()
		if got, want := v.Send(src, dst, at, class), ref.Send(src, dst, at, class); got != want {
			t.Errorf("%d->%d at %d: view arrival %d, Send arrival %d", src, dst, at, got, want)
		}
	}
	direct := func(src, dst topology.NodeID, at int64, class PacketClass) {
		n.Send(src, dst, at, class)
		ref.Send(src, dst, at, class)
	}

	// Stamp c->d with the view's very first epoch, then a->b in a
	// regular window.
	check(c, d, 0, Data)
	v.Fold()
	v.BeginWindow()
	check(a, b, 0, Data)
	v.Fold()
	// Traffic outside the view moves the canonical state past what the
	// view last saw, including on e->f, which the view never touched.
	direct(a, b, 0, Data)
	direct(c, d, 0, Data)
	direct(e, f, 0, Data)

	v.cur = math.MaxUint32 // the next BeginWindow wraps
	v.BeginWindow()
	check(a, b, 0, Data)
	check(c, d, 0, Data)
	check(e, f, 0, Data)
	v.Fold()
	v.BeginWindow()
	check(e, f, 0, Request)
	v.Fold()
	v.FlushStats()
	sameState(t, n, ref)
}
