package machine

import (
	"dircoh/internal/core"
)

// ev is one pooled protocol continuation: the state a transaction carries
// from one hop to the next, plus the step to run when the hop's event
// fires. One record follows a transaction from the request to its reply
// (a fan-out takes one record per target); each step reads the fields it
// needs, then either reschedules the record with the next step in run or
// returns it to the pool. fire is bound once, when the record is first
// allocated, so scheduling a hop allocates nothing.
//
// Ownership across shards: a record belongs to exactly one cluster at a
// time — the cluster whose event holds it — and changes hands only through
// at/xat/sendTx, so a cross-shard hop crosses a window barrier, which is
// the happens-before edge. A step never touches a record after
// scheduling it, and two events that may fire in the same window never
// share one (the home's unlock at a reply's arrival takes its own).
type ev struct {
	run  func(m *Machine, r *ev)
	fire func() // bound once: run(m, r)
	next *ev    // free-list link

	p  *proc        // requester (or the processor a grant, wake or ack is for)
	h  *clusterNode // home
	oc *clusterNode // owner or invalidation target
	tx *txState
	ve core.Entry // replacement victim's entry (replaceEntry's gate wait)
	ws []int      // woken processors a lock wake carries
	b  int64      // block, or a lock or barrier address
	n  int        // acknowledgement count, or a cluster id (writeback sender, tree-barrier node)

	write   bool // exclusive access (write or upgrade request)
	upgrade bool // upgrade request: the requester still holds a shared copy
	atReply bool // the ownership reply charges the invalidation acks (fault-free)
	unlock  bool // the reply unlocks the home's gate on arrival (faults on)
	recall  bool // replacement recall: the ack completes a RAC entry
}

// evPool is one shard's free list of records. Records are taken and
// returned in the context of a cluster the shard owns, so only that
// shard's worker touches the list; at width 1 the one pool holds no more
// records than were ever in flight at once. Pools sit in a slice indexed
// by shard, padded so adjacent shards' list heads never share a cache
// line.
type evPool struct {
	free *ev
	_    [56]byte
}

// newEv takes a cleared record from the pool of running cluster c's shard
// and sets its first step.
func (m *Machine) newEv(c *clusterNode, run func(*Machine, *ev)) *ev {
	pl := c.pool
	r := pl.free
	if r == nil {
		r = &ev{}
		r.fire = func() { r.run(m, r) }
	} else {
		pl.free = r.next
		r.next = nil
	}
	r.run = run
	return r
}

// freeEv clears r and returns it to the pool of running cluster c's shard.
// Clearing drops every reference the record held, so the pool keeps no
// processor, transaction or entry alive, and the next user starts from
// zero fields.
func (m *Machine) freeEv(c *clusterNode, r *ev) {
	*r = ev{fire: r.fire, next: c.pool.free}
	c.pool.free = r
}

// nop handles messages whose arrival has no effect beyond being counted
// and scheduled (a sharing writeback a forwarded read already applied).
func nop() {}
