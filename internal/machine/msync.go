package machine

import (
	"dircoh/internal/core"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
)

// lockAcquire runs a Lock reference (after the release-consistency fence).
// Locks are queued in the directory (§7): the home records waiters using
// the machine's directory scheme, so coarse-vector lock grants wake whole
// regions that then re-contend.
func (m *Machine) lockAcquire(p *proc, addr int64, retry bool) {
	if retry {
		p.cl.res.lockRetries.Inc()
		m.trace(obs.EvRetry, p.cl.id, addr, 0)
	}
	home := m.home(m.block(addr))
	if home == p.cl.id {
		granted, woken := p.cl.res.locks.Acquire(addr, p.cl.id, p.id)
		m.wakeNodes(addr, home, woken)
		if granted {
			m.complete(p, m.now(p.cl)+m.t.Bus)
		}
		// Otherwise p blocks until granted or woken.
		return
	}
	// One lock transaction per remote acquisition round: it ends at the
	// grant (or the wake that triggers a retry, which opens a new round).
	tx := m.txStart(obs.TxLock, p.cl, addr)
	m.lockTxSet(p, tx)
	r := m.newEv(p.cl, evLockReq)
	r.p, r.h, r.b, r.tx = p, m.clusters[home], addr, tx
	m.sendTx(protocol.LockReq, p.cl.id, home, tx, r.fire)
}

// evLockReq runs when a lock request reaches the lock's home r.h.
func evLockReq(m *Machine, r *ev) {
	m.txPhase(r.h, r.tx, obs.PhReqTravel)
	done := m.dirOp(r.h, m.t.Dir)
	r.run = evLockAcquire
	m.at(r.h, done, r.fire)
}

// evLockAcquire tries the acquisition at the home; a grant goes back to
// the requester in the same record.
func evLockAcquire(m *Machine, r *ev) {
	p, hc, addr, tx := r.p, r.h, r.b, r.tx
	granted, woken := hc.res.locks.Acquire(addr, p.cl.id, p.id)
	m.wakeNodes(addr, hc.id, woken)
	if !granted {
		m.freeEv(hc, r)
		return
	}
	m.txPhase(hc, tx, obs.PhDirWait)
	r.run = evLockGrant
	m.sendTx(protocol.LockGrant, hc.id, p.cl.id, tx, r.fire)
}

// evLockGrant completes r.p's lock acquisition when the grant arrives.
func evLockGrant(m *Machine, r *ev) {
	p, tx := r.p, r.tx
	m.freeEv(p.cl, r)
	m.txPhase(p.cl, tx, obs.PhReplyTravel)
	m.lockTxEnd(p)
	m.complete(p, m.now(p.cl)+m.t.Hit)
}

// lockRelease runs an Unlock reference. The releasing processor proceeds
// as soon as the release is issued (release consistency); the grant logic
// runs at the lock's home.
func (m *Machine) lockRelease(p *proc, addr int64) {
	home := m.home(m.block(addr))
	if home == p.cl.id {
		g := p.cl.res.locks.Release(addr)
		m.handleGrant(addr, home, g)
		m.complete(p, m.now(p.cl)+m.t.Bus)
		return
	}
	r := m.newEv(p.cl, evUnlockReq)
	r.h, r.b = m.clusters[home], addr
	m.send(protocol.UnlockReq, p.cl.id, home, r.fire)
	m.complete(p, m.now(p.cl)+m.t.Hit)
}

// evUnlockReq runs when a release reaches the lock's home r.h.
func evUnlockReq(m *Machine, r *ev) {
	done := m.dirOp(r.h, m.t.Dir)
	r.run = evLockRelease
	m.at(r.h, done, r.fire)
}

// evLockRelease releases the lock at the home and delivers the outcome.
func evLockRelease(m *Machine, r *ev) {
	hc, addr := r.h, r.b
	m.freeEv(hc, r)
	g := hc.res.locks.Release(addr)
	m.handleGrant(addr, hc.id, g)
}

// handleGrant delivers the outcome of a lock release: either a direct
// grant to a single waiter (precise waiter set) or wake messages to the
// popped region (coarse waiter set), whose waiters retry.
func (m *Machine) handleGrant(addr int64, home int, g protocol.Grant) {
	if g.Direct {
		q := m.procs[g.Proc]
		if g.Node == home {
			m.complete(q, m.now(q.cl)+m.t.Hit)
			return
		}
		tx := m.lockTxOf(q)
		hc := m.clusters[home]
		m.txPhase(hc, tx, obs.PhDirWait)
		r := m.newEv(hc, evLockGrant)
		r.p, r.tx = q, tx
		m.sendTx(protocol.LockGrant, home, g.Node, tx, r.fire)
		return
	}
	m.wakeNodes(addr, home, g.Wake)
}

// wakeNodes tells each node's waiters to retry acquisition. Nodes in a
// coarse region that never had waiters still receive (and ignore) the
// message — that traffic is the coarse vector's imprecision at work. It
// runs at the lock's home; the waiter list for a remote node is
// snapshotted here (the table lives at the home) and carried inside the
// wake message, so the remote cluster never touches the home's table. A
// waiter that registers while the wake is in flight misses this round and
// is woken at the next release, identically at every shard count.
func (m *Machine) wakeNodes(addr int64, home int, nodes []core.NodeID) {
	hc := m.clusters[home]
	for _, w := range nodes {
		if w == home {
			m.retryWaiters(addr, hc.res.locks.TakeWaiters(addr, w))
			continue
		}
		r := m.newEv(hc, evLockWake)
		r.b, r.ws, r.n = addr, hc.res.locks.TakeWaiters(addr, w), w
		m.send(protocol.LockWake, home, w, r.fire)
	}
}

// evLockWake retries the waiters a wake message carries, at cluster r.n.
func evLockWake(m *Machine, r *ev) {
	addr, ws := r.b, r.ws
	m.freeEv(m.clusters[r.n], r)
	m.retryWaiters(addr, ws)
}

// retryWaiters re-runs lock acquisition for each woken processor. It runs
// at the waiters' own cluster.
func (m *Machine) retryWaiters(addr int64, procIDs []int) {
	for _, procID := range procIDs {
		q := m.procs[procID]
		// A wake ends the waiter's current lock round (the retry opens a
		// fresh transaction, linked by the lock.retry trace event).
		if tx := m.lockTxOf(q); tx != nil {
			m.txPhase(q.cl, tx, obs.PhDirWait)
			m.lockTxEnd(q)
		}
		m.lockAcquire(q, addr, true)
	}
}

// treeFanout is the combining-tree branching factor.
const treeFanout = 4

// treeParent returns c's parent cluster in the combining tree (root: 0).
func treeParent(c int) int { return (c - 1) / treeFanout }

// treeChildren calls fn for each child cluster of c.
func (m *Machine) treeChildren(c int, fn func(child int)) {
	for i := 1; i <= treeFanout; i++ {
		child := c*treeFanout + i
		if child < len(m.clusters) {
			fn(child)
		}
	}
}

// treeExpected returns the number of arrivals cluster c's tree node
// combines: its own processors plus one per child subtree.
func (m *Machine) treeExpected(c int) int {
	n := len(m.clusters[c].procs)
	m.treeChildren(c, func(int) { n++ })
	return n
}

// treeArrive records one arrival (a local processor or a completed child
// subtree) at cluster c's node of the combining tree for barrier addr.
func (m *Machine) treeArrive(c int, addr int64) {
	cl := m.clusters[c]
	cl.treeArrived[addr]++
	if cl.treeArrived[addr] < m.treeExpected(c) {
		return
	}
	delete(cl.treeArrived, addr)
	if c == 0 {
		m.treeRelease(c, addr)
		return
	}
	parent := treeParent(c)
	r := m.newEv(cl, evTreeArrive)
	r.n, r.b = parent, addr
	m.send(protocol.BarrierArrive, c, parent, r.fire)
}

// evTreeArrive delivers a completed subtree's arrival to tree node r.n.
func evTreeArrive(m *Machine, r *ev) {
	c, addr := r.n, r.b
	m.freeEv(m.clusters[c], r)
	m.treeArrive(c, addr)
}

// treeRelease fans the barrier release down cluster c's subtree.
func (m *Machine) treeRelease(c int, addr int64) {
	cl := m.clusters[c]
	for _, q := range cl.treeWaiting[addr] {
		m.complete(q, m.now(cl)+m.t.Hit)
	}
	delete(cl.treeWaiting, addr)
	m.treeChildren(c, func(child int) {
		r := m.newEv(cl, evTreeRelease)
		r.n, r.b = child, addr
		m.send(protocol.BarrierRelease, c, child, r.fire)
	})
}

// evTreeRelease fans a barrier release on down from tree node r.n.
func evTreeRelease(m *Machine, r *ev) {
	c, addr := r.n, r.b
	m.freeEv(m.clusters[c], r)
	m.treeRelease(c, addr)
}

// barrierArrive runs a Barrier reference: the arrival is sent to the
// barrier's home; the last arrival releases every participant.
func (m *Machine) barrierArrive(p *proc, addr int64) {
	if m.cfg.Barrier == TreeBarrier {
		cl := p.cl
		cl.treeWaiting[addr] = append(cl.treeWaiting[addr], p)
		m.treeArrive(cl.id, addr)
		return
	}
	m.centralBarrierArrive(p, addr)
}

// centralBarrierArrive implements the default single-home barrier.
func (m *Machine) centralBarrierArrive(p *proc, addr int64) {
	home := m.home(m.block(addr))
	if home == p.cl.id {
		m.barrierDeliver(p.cl, p, addr)
		return
	}
	r := m.newEv(p.cl, evBarrierArrive)
	r.p, r.h, r.b = p, m.clusters[home], addr
	m.send(protocol.BarrierArrive, p.cl.id, home, r.fire)
}

// evBarrierArrive delivers r.p's arrival at the barrier's home r.h.
func evBarrierArrive(m *Machine, r *ev) {
	p, hc, addr := r.p, r.h, r.b
	m.freeEv(hc, r)
	m.barrierDeliver(hc, p, addr)
}

// barrierDeliver records p's arrival at the barrier's home hc; the last
// arrival releases every participant.
func (m *Machine) barrierDeliver(hc *clusterNode, p *proc, addr int64) {
	for _, qid := range hc.res.barriers.Arrive(addr, p.id) {
		q := m.procs[qid]
		if q.cl == hc {
			m.complete(q, m.now(hc)+m.t.Hit)
			continue
		}
		r := m.newEv(hc, evBarrierRelease)
		r.p = q
		m.send(protocol.BarrierRelease, hc.id, q.cl.id, r.fire)
	}
}

// evBarrierRelease releases processor r.p from a central barrier.
func evBarrierRelease(m *Machine, r *ev) {
	q := r.p
	m.freeEv(q.cl, r)
	m.complete(q, m.now(q.cl)+m.t.Hit)
}
