package collective

import "time"

// board is one blackboard: a stash slot per rank plus each rank's reusable
// view header. A rank reuses its own stash buffer in place on its next
// stash; by then the previous collective's closing barrier guarantees no
// peer still reads it, so stashing allocates only when a payload outgrows
// the rank's buffer.
type board[T any] struct {
	stash [][]T   // stash[r] is rank r's published payload
	parts [][][]T // parts[r] is the length-g header rank r hands to use
}

func newBoard[T any](g int) board[T] {
	b := board[T]{stash: make([][]T, g), parts: make([][][]T, g)}
	for r := range b.parts {
		b.parts[r] = make([][]T, g)
	}
	return b
}

// put publishes a copy of local as rank's stash and returns it.
func (b *board[T]) put(rank int, local []T) []T {
	s := b.stash[rank]
	if cap(s) < len(local) {
		s = make([]T, len(local))
	}
	s = s[:len(local)]
	copy(s, local)
	b.stash[rank] = s
	return s
}

// opKind selects the Stats counters a blackboard op posts to and the α–β
// formula that prices it.
type opKind int

const (
	// kindVote is control plane: no Stats, a zero-byte (sync-only) charge.
	kindVote opKind = iota
	// kindGather posts AllGather counters at the ring all-gather volume.
	kindGather
	// kindReduce posts AllReduce counters at the ring all-gather volume
	// (the compressed all-reduce gathers payloads, then reduces locally).
	kindReduce
	// kindBroadcast reads only the root's stash; the root pays one
	// payload, priced as a binomial-tree broadcast.
	kindBroadcast
)

// op describes one blackboard collective.
type op struct {
	kind opKind
	// name and label are the telemetry op and wire labels (and the trace
	// span name); an empty name records neither.
	name, label string
	// width is the wire size of one element when wire is nil: 4 for int
	// indices (int32 on the wire, as real stacks send them) and FP32, 1
	// for opaque payload bytes.
	width int64
	// wire, when non-nil, round-trips the stashed float32 copy (the
	// payload crosses the wire once) and sizes it.
	wire Wire
	root int // kindBroadcast only
}

// partBytes is the wire footprint of an n-element part.
func (o *op) partBytes(n int) int64 {
	if o.wire != nil {
		return wireSize(o.wire, n)
	}
	return o.width * int64(n)
}

// counters returns the calls/bytes counter pair op kind k posts to (nil
// for the control plane).
func (s *Stats) counters(k opKind) (calls, bytes *int64) {
	switch k {
	case kindGather:
		return &s.AllGatherCalls, &s.AllGatherBytes
	case kindReduce:
		return &s.AllReduceCalls, &s.AllReduceBytes
	case kindBroadcast:
		return &s.BroadcastCalls, &s.BroadcastBytes
	}
	return nil, nil
}

// gather is the one blackboard protocol every gather, broadcast, vote and
// compressed all-reduce runs: stash → barrier → use(views of every rank's
// stash, in rank order) → Stats → closing barrier → charge → telemetry →
// trace. The views are valid only until use returns (see the package
// comment). A broadcast's non-root ranks stash nothing and read only
// parts[root].
func gather[T any](c *Comm, b *board[T], rank int, local []T, o op, use func(parts [][]T)) {
	var t0 time.Time
	var v0 float64
	if o.name != "" && (c.tel != nil || c.trace != nil) {
		t0 = time.Now()
		v0 = c.clockNow(rank)
	}
	if o.kind != kindBroadcast || rank == o.root {
		s := b.put(rank, local)
		if o.wire != nil {
			o.wire.RoundTrip(any(s).([]float32))
		}
	}
	c.barrier.Wait()
	parts := b.parts[rank]
	copy(parts, b.stash)
	use(parts)

	// sent is this rank's Stats volume; unit is the payload the α–β
	// formula prices (the largest part of a gather, the root's broadcast).
	var sent, unit int64
	switch o.kind {
	case kindGather, kindReduce:
		for _, p := range parts {
			n := o.partBytes(len(p))
			sent += n
			unit = max(unit, n)
		}
		sent = sent * int64(c.g-1) / int64(c.g)
	case kindBroadcast:
		unit = o.partBytes(len(parts[o.root]))
		if rank == o.root {
			sent = unit
		}
	}
	if calls, bytes := c.stats[rank].counters(o.kind); calls != nil {
		c.mu.Lock()
		*calls++
		*bytes += sent
		c.mu.Unlock()
	}
	c.barrier.Wait()
	c.charge(rank, func(cm *CostModel) {
		switch o.kind {
		case kindGather, kindReduce:
			cm.Charge(cm.Link.RingAllGatherSeconds(c.g, unit))
		case kindBroadcast:
			cm.Charge(cm.Link.TreeBroadcastSeconds(c.g, unit))
		default:
			cm.Charge(0)
		}
	})
	if o.name != "" {
		if c.tel != nil {
			c.tel.record(o.name, o.label, 1, sent, int64(time.Since(t0)))
		}
		c.traceOp(o.name, rank, t0, v0)
	}
}

// AllGatherInts gathers each rank's (possibly different-length) int slice;
// every rank receives the per-rank slices in rank order. This is the cheap
// Θ(G·K) index gather of §III-A step 3. The result is a copy owned by the
// caller: one backing array, with each inner slice capped at its length.
func (c *Comm) AllGatherInts(rank int, local []int) [][]int {
	var out [][]int
	gather(c, &c.ints, rank, local, op{kind: kindGather, name: "allgather_ints", label: "int32", width: 4}, func(parts [][]int) {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		flat := make([]int, n)
		out = make([][]int, len(parts))
		for r, p := range parts {
			out[r] = flat[:len(p):len(p)]
			copy(out[r], p)
			flat = flat[len(p):]
		}
	})
	return out
}

// AllGatherFloats gathers each rank's float32 block, FP32 or lossy (FP16,
// 8-bit, …) on the wire, and hands every rank's wire-rounded block, in rank
// order, to use. This is the expensive baseline exchange of §II-B. The
// blocks are views of the peers' stashes, valid only while use runs, so a
// rank holds one stashed block of its own instead of G copies; use must
// copy whatever it keeps.
func (c *Comm) AllGatherFloats(rank int, local []float32, wire Wire, use func(blocks [][]float32)) {
	gather(c, &c.floats, rank, local, op{kind: kindGather, name: "allgather_floats", label: wireLabel(wire), width: 4, wire: wire}, use)
}

// BroadcastInts distributes root's int slice to every rank of the
// communicator; every rank (root included) receives a fresh copy (sizes
// need not be known in advance).
func (c *Comm) BroadcastInts(rank, root int, x []int) []int {
	var out []int
	gather(c, &c.ints, rank, x, op{kind: kindBroadcast, width: 4, root: root}, func(parts [][]int) {
		out = make([]int, len(parts[root]))
		copy(out, parts[root])
	})
	return out
}

// BroadcastFloatsVar distributes root's float32 slice to every rank,
// returning a fresh copy on every rank (length follows the root's slice).
func (c *Comm) BroadcastFloatsVar(rank, root int, x []float32) []float32 {
	var out []float32
	gather(c, &c.floats, rank, x, op{kind: kindBroadcast, width: 4, root: root}, func(parts [][]float32) {
		out = make([]float32, len(parts[root]))
		copy(out, parts[root])
	})
	return out
}

// AgreeAllOK is a control-plane consensus: every rank reports a boolean and
// all ranks learn whether every rank said true. Exchange engines use it to
// fail collectively when any rank cannot allocate scratch memory, so no
// rank blocks in a data collective its peers abandoned. Control-plane
// traffic is excluded from the data-plane byte accounting, but the vote is
// a synchronization point, so clocks max-sync (zero-byte charge).
func (c *Comm) AgreeAllOK(rank int, ok bool) bool {
	var vote [1]int
	if ok {
		vote[0] = 1
	}
	all := true
	gather(c, &c.ints, rank, vote[:], op{kind: kindVote}, func(parts [][]int) {
		for _, p := range parts {
			if len(p) != 1 || p[0] == 0 {
				all = false
			}
		}
	})
	return all
}
