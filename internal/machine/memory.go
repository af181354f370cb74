package machine

import (
	"dircoh/internal/bitset"
	"dircoh/internal/cache"
	"dircoh/internal/core"
	"dircoh/internal/obs"
	"dircoh/internal/protocol"
	"dircoh/internal/sim"
	"dircoh/internal/sparse"
)

// access handles one read or write reference by p.
func (m *Machine) access(p *proc, write bool, addr int64) {
	m.accessBlock(p, write, m.block(addr))
}

// accessBlock runs one access by block number (used directly when MSHR
// waiters retry).
func (m *Machine) accessBlock(p *proc, write bool, b int64) {
	now := m.now(p.cl)
	if !p.opPending {
		p.opPending = true
		p.opWrite = write
		p.opStart = now
	}
	res := p.h.Access(b, write, now)
	if res == cache.Hit {
		m.complete(p, now+m.t.Hit)
		return
	}
	done := m.busOp(p.cl, m.t.Bus)
	r := m.newEv(p.cl, evBusMiss)
	r.p, r.b, r.write, r.upgrade = p, b, write, res == cache.MissUpgrade
	m.at(p.cl, done, r.fire)
}

// evRetryAccess re-runs an access parked behind an outstanding write.
func evRetryAccess(m *Machine, r *ev) {
	p, write, b := r.p, r.write, r.b
	m.freeEv(p.cl, r)
	m.accessBlock(p, write, b)
}

// fill installs block b in p's caches and handles any writeback the fill
// displaces.
func (m *Machine) fill(p *proc, b int64, st cache.State) {
	if b == m.debugBlock {
		m.debugf(b, "fill p%d/c%d %v", p.id, p.cl.id, st)
	}
	v := p.h.Fill(b, st, m.now(p.cl))
	m.handleVictim(p, v)
}

// handleVictim sends a writeback for a dirty cache victim; shared victims
// are dropped silently (the directory keeps a stale, superset sharer bit,
// as DASH does).
func (m *Machine) handleVictim(p *proc, v cache.Victim) {
	if !v.Valid || !v.Dirty {
		return
	}
	vb := v.Block
	home := m.home(vb)
	if home == p.cl.id {
		return // local memory updated over the bus; no network traffic
	}
	r := m.newEv(p.cl, evWriteback)
	r.h, r.b, r.n = m.clusters[home], vb, p.cl.id
	m.send(protocol.WritebackReq, p.cl.id, home, r.fire)
}

// evWriteback applies a dirty victim's writeback from cluster r.n at home
// r.h.
func evWriteback(m *Machine, r *ev) {
	hc, vb, from := r.h, r.b, r.n
	m.freeEv(hc, r)
	if m.staleWriteback(hc, vb) {
		return
	}
	// Guarded update: only clear ownership if the directory still
	// believes we own the block (a racing transaction may already
	// have moved ownership; its forwarded request found no copy) and
	// the cluster has not re-acquired the block dirty meanwhile
	// (ownership bouncing away and back via a third cluster arms no
	// wbExpected, so a fault-delayed writeback can arrive here stale).
	// A busy gate with the entry dirty-owned by the sender can only
	// mean an undelivered ownership grant back to the sender, which
	// this writeback predates — treat it as stale too.
	if e := hc.dir.Lookup(m.dirKey(vb), m.now(hc)); e != nil && e.Dirty() && e.Owner() == from &&
		!m.clusterHoldsDirty(m.clusters[from], vb) && !hc.gate.Busy(vb) {
		e.Reset()
		hc.dir.Release(m.dirKey(vb))
	}
	m.checkBlock(vb)
}

// staleWriteback consumes one expected stale writeback for b at home hc,
// if any: a writeback superseded by a re-grant of ownership to the same
// cluster (the home counted it when serving that request) is dropped.
func (m *Machine) staleWriteback(hc *clusterNode, b int64) bool {
	n := hc.wbExpected[b]
	if n == 0 {
		return false
	}
	if n == 1 {
		delete(hc.wbExpected, b)
	} else {
		hc.wbExpected[b] = n - 1
	}
	return true
}

// evBusMiss runs after r.p's local bus transaction: snoop the cluster's
// other caches, then involve the home directory if the cluster cannot
// satisfy the access by itself. The record becomes the request.
func evBusMiss(m *Machine, r *ev) {
	p, write, b, upgrade := r.p, r.write, r.b, r.upgrade
	c := p.cl
	now := m.now(c)
	home := m.home(b)
	if write {
		localDirty := false
		for _, q := range c.procs {
			if q == p {
				continue
			}
			if _, d := q.h.Invalidate(b); d {
				localDirty = true
			}
		}
		// A sibling's outstanding read must not install a copy after
		// this write: poison it (bus-order serialization).
		if _, ok := c.pendingReads[b]; ok {
			c.poisonedReads[b] = true
		}
		if localDirty {
			// Cache-to-cache ownership transfer within the cluster; the
			// directory state (dirty at this cluster, or home-local) is
			// unchanged.
			if b == m.debugBlock {
				m.debugf(b, "localDirty transfer to p%d/c%d", p.id, p.cl.id)
			}
			m.freeEv(c, r)
			m.fill(p, b, cache.Dirty)
			m.complete(p, now+m.t.Fill)
			return
		}
		if home == c.id {
			r.run = evHomeLocalWrite
			evHomeLocalWrite(m, r)
			return
		}
		if c.pendingWrite[b] {
			// Another local processor's ownership request is in flight;
			// retry over the bus when it completes.
			m.freeEv(c, r)
			c.writeWaiters[b] = append(c.writeWaiters[b], mshrWaiter{p: p, write: true})
			c.res.mergedReads.Inc()
			return
		}
		c.pendingWrite[b] = true
		kind := protocol.WriteReq
		class := obs.TxWrite
		if upgrade {
			kind = protocol.UpgradeReq
			class = obs.TxUpgrade
		}
		tx := m.txStart(class, c, b)
		m.trace(obs.EvReqIssue, c.id, b, int64(kind))
		r.tx, r.run = tx, evWriteAtHome
		m.sendTx(kind, c.id, home, tx, r.fire)
		return
	}
	// Read. An ownership request in flight from this cluster wins the
	// MSHR check before any bus supply: the sibling's copy is about to
	// be superseded, so park and retry once the write lands.
	if c.pendingWrite[b] {
		m.freeEv(c, r)
		c.writeWaiters[b] = append(c.writeWaiters[b], mshrWaiter{p: p})
		c.res.mergedReads.Inc()
		return
	}
	// Another local cache can supply the data directly.
	for _, q := range c.procs {
		if q == p {
			continue
		}
		switch q.h.State(b) {
		case cache.Dirty:
			if b == m.debugBlock {
				m.debugf(b, "local dirty supply q%d -> p%d (c%d)", q.id, p.id, c.id)
			}
			m.freeEv(c, r)
			q.h.Downgrade(b)
			m.fill(p, b, cache.Shared)
			if home != c.id {
				m.sendSharingWB(c.id, home, b)
			}
			m.complete(p, now+m.t.Fill)
			return
		case cache.Shared:
			m.freeEv(c, r)
			m.fill(p, b, cache.Shared)
			m.complete(p, now+m.t.Fill)
			return
		}
	}
	if home == c.id {
		r.run = evHomeLocalRead
		evHomeLocalRead(m, r)
		return
	}
	// RAC request merging: if another local processor already has a read
	// outstanding for this block, ride its reply instead of sending a
	// second request.
	if followers, ok := c.pendingReads[b]; ok {
		m.freeEv(c, r)
		c.pendingReads[b] = append(followers, p)
		c.res.mergedReads.Inc()
		return
	}
	c.pendingReads[b] = nil
	tx := m.txStart(obs.TxRead, c, b)
	m.trace(obs.EvReqIssue, c.id, b, int64(protocol.ReadReq))
	r.tx, r.run = tx, evReadAtHome
	m.sendTx(protocol.ReadReq, c.id, home, tx, r.fire)
}

// remoteReadDone fills p and every merged follower, completing them all.
// A poisoned read delivers its data without caching it.
func (m *Machine) remoteReadDone(p *proc, b int64, tx *txState) {
	m.txPhase(p.cl, tx, obs.PhReplyTravel)
	m.txEnd(p.cl, tx)
	now := m.now(p.cl)
	poisoned := p.cl.poisonedReads[b]
	followers := p.cl.pendingReads[b]
	if b == m.debugBlock {
		m.debugf(b, "remoteReadDone p%d/c%d poisoned=%v followers=%d", p.id, p.cl.id, poisoned, len(followers))
	}
	delete(p.cl.pendingReads, b)
	delete(p.cl.poisonedReads, b)
	m.readFilled(p, b, poisoned, now)
	for _, q := range followers {
		m.readFilled(q, b, poisoned, now)
	}
	m.checkBlock(b)
}

// readFilled completes one processor's remote read of b, caching the data
// unless the read was poisoned.
func (m *Machine) readFilled(q *proc, b int64, poisoned bool, now sim.Time) {
	if !poisoned {
		m.fill(q, b, cache.Shared)
	}
	m.complete(q, now+m.t.Fill)
}

// invalidateCluster removes block b from every cache of cluster c and, if
// c has a read outstanding for b, poisons it so the in-flight reply is
// consumed without caching (the invalidation logically follows the read).
// A directed invalidation that finds neither a cached copy nor a pending
// read was extraneous — sent only because the directory's sharer
// information is imprecise (coarse regions, broadcasts, stale bits).
// directed is false for the home-bus snoop, which is issued
// unconditionally and so says nothing about directory precision.
func (m *Machine) invalidateCluster(c *clusterNode, b int64, directed bool) {
	if b == m.debugBlock {
		m.debugf(b, "invalidateCluster c%d", c.id)
	}
	hit := false
	for _, q := range c.procs {
		if present, _ := q.h.Invalidate(b); present {
			hit = true
		}
	}
	if _, ok := c.pendingReads[b]; ok {
		c.poisonedReads[b] = true
		hit = true
	}
	if directed && !hit {
		c.res.extraInval.Inc()
	}
}

// sendSharingWB tells the home that cluster `from` downgraded its dirty
// copy and memory is current again.
func (m *Machine) sendSharingWB(from, home int, b int64) {
	r := m.newEv(m.clusters[from], evSharingWB)
	r.h, r.b, r.n = m.clusters[home], b, from
	m.send(protocol.SharingWB, from, home, r.fire)
}

// evSharingWB applies cluster r.n's sharing writeback at home r.h.
func evSharingWB(m *Machine, r *ev) {
	hc, b, from := r.h, r.b, r.n
	m.freeEv(hc, r)
	// Stale with respect to a re-granted ownership (see wbExpected)?
	if m.staleWriteback(hc, b) {
		return
	}
	// Guarded downgrade: ownership may have moved away and back since
	// this writeback was sent (delay or retry reordering via a third
	// cluster arms no wbExpected). If the cluster holds the block
	// dirty again — or a grant back to it is still in flight (gate
	// busy with the entry dirty-owned by the sender) — the downgrade
	// this message reports is ancient.
	if e := hc.dir.Lookup(m.dirKey(b), m.now(hc)); e != nil && e.Dirty() && e.Owner() == from &&
		!m.clusterHoldsDirty(m.clusters[from], b) && !hc.gate.Busy(b) {
		e.ClearDirty()
	}
	m.checkBlock(b)
}

// evHomeLocalRead serves a read whose home is the requester's own
// cluster; it runs again if the request waits on the gate.
func evHomeLocalRead(m *Machine, r *ev) {
	p, b := r.p, r.b
	h := p.cl
	if h.gate.Busy(b) {
		h.gate.Wait(b, r.fire)
		return
	}
	now := m.now(h)
	// Re-snoop: a sibling may have obtained a copy while this request
	// waited on the gate; the bus supplies it directly.
	for _, q := range h.procs {
		if q == p {
			continue
		}
		switch q.h.State(b) {
		case cache.Dirty:
			m.freeEv(h, r)
			q.h.Downgrade(b)
			m.fill(p, b, cache.Shared)
			m.complete(p, now+m.t.Fill)
			return
		case cache.Shared:
			m.freeEv(h, r)
			m.fill(p, b, cache.Shared)
			m.complete(p, now+m.t.Fill)
			return
		}
	}
	e := h.dir.Lookup(m.dirKey(b), now)
	if e == nil || !e.Dirty() {
		m.freeEv(h, r)
		m.fill(p, b, cache.Shared)
		m.complete(p, now+m.t.Fill)
		return
	}
	// Dirty in a remote cluster: forward there; the reply to the home
	// doubles as the sharing writeback.
	owner := e.Owner()
	e.ClearDirty()
	h.gate.Lock(b)
	r.h, r.oc, r.run = h, m.clusters[owner], evForward
	m.send(protocol.FwdReadReq, h.id, owner, r.fire)
}

// evHomeLocalWrite serves a write whose home is the requester's own
// cluster; it runs again if the request waits on the gate. The local bus
// snoop has already invalidated other local copies.
func evHomeLocalWrite(m *Machine, r *ev) {
	p, b := r.p, r.b
	h := p.cl
	if h.gate.Busy(b) {
		h.gate.Wait(b, r.fire)
		return
	}
	now := m.now(h)
	// Re-snoop: siblings may have picked up copies while this request
	// waited on the gate; a sibling's dirty copy transfers ownership
	// over the bus, shared copies are invalidated.
	localDirty := false
	for _, q := range h.procs {
		if q == p {
			continue
		}
		if _, d := q.h.Invalidate(b); d {
			localDirty = true
		}
	}
	if localDirty {
		m.freeEv(h, r)
		m.fill(p, b, cache.Dirty)
		m.complete(p, now+m.t.Fill)
		return
	}
	e := h.dir.Lookup(m.dirKey(b), now)
	if e == nil || e.Empty() {
		m.freeEv(h, r)
		if e != nil {
			h.dir.Release(m.dirKey(b))
		}
		h.res.invalHist.Add(0)
		h.res.invalFan.Observe(0)
		m.fill(p, b, cache.Dirty)
		m.complete(p, now+m.t.Fill)
		return
	}
	if e.Dirty() {
		// Recall from the remote owner; afterwards the block is dirty in
		// the home cluster and needs no directory entry.
		owner := e.Owner()
		e.Reset()
		h.dir.Release(m.dirKey(b))
		h.gate.Lock(b)
		r.h, r.oc, r.run = h, m.clusters[owner], evForward
		m.send(protocol.FwdWriteReq, h.id, owner, r.fire)
		return
	}
	m.freeEv(h, r)
	// Remote sharers: invalidate them; ownership is granted immediately
	// (acknowledgements drain asynchronously under release consistency).
	targets := e.Sharers()
	targets.Remove(h.id)
	n := targets.Count()
	h.res.invalHist.Add(n)
	h.res.invalFan.Observe(uint64(n))
	if n > 0 && !e.Precise() {
		m.trace(obs.EvOverflow, h.id, b, int64(n))
	}
	e.Reset()
	h.dir.Release(m.dirKey(b))
	p.pendingAcks += n
	if m.chk != nil {
		m.chk.AckExpect(p.id, n)
	}
	m.fill(p, b, cache.Dirty)
	m.complete(p, now+m.t.Fill)
	m.sendInvals(h, b, targets, p, nil)
	m.checkBlock(b)
}

// evForward runs when a request the home r.h forwarded reaches the dirty
// owner r.oc: the owner's bus snoop gives up (write) or downgrades (read)
// its copy.
func evForward(m *Machine, r *ev) {
	dur := m.t.Fwd
	if r.write {
		dur = m.t.InvalBus
	}
	done := m.busOp(r.oc, dur)
	r.run = evOwnerBus
	m.at(r.oc, done, r.fire)
}

// evOwnerBus completes the owner's snoop and replies. A home-local
// requester is answered at the home, whose reply handler unlocks the gate;
// a remote requester gets the reply directly (and, for a read, the home a
// sharing writeback).
func evOwnerBus(m *Machine, r *ev) {
	oc, h, b, tx, write := r.oc, r.h, r.b, r.tx, r.write
	kind := protocol.DataReply
	if write {
		kind = protocol.OwnershipReply
		m.applyInval(oc, b, false)
	} else {
		for _, q := range oc.procs {
			q.h.Downgrade(b)
		}
	}
	if r.p.cl == h {
		r.run = evLocalReply
		m.send(kind, oc.id, h.id, r.fire)
		return
	}
	m.txPhase(oc, tx, obs.PhFanout)
	if write {
		r.run = evWriteDone
		m.replyUnlock(kind, oc, r)
		return
	}
	r.run = evReadDone
	m.replyUnlock(kind, oc, r)
	m.sendTx(protocol.SharingWB, oc.id, h.id, tx, nop)
}

// evLocalReply completes a home-local access whose home forwarded it to a
// remote owner, and unlocks the gate.
func evLocalReply(m *Machine, r *ev) {
	p, h, b := r.p, r.h, r.b
	st := cache.Shared
	if r.write {
		st = cache.Dirty
	}
	m.freeEv(h, r)
	m.fill(p, b, st)
	m.complete(p, m.now(h)+m.t.Fill)
	m.unlockHome(h, b)
}

// unlockHome unlocks home h's gate for b and checks the block.
func (m *Machine) unlockHome(h *clusterNode, b int64) {
	h.gate.Unlock(b)
	m.checkBlock(b)
}

// sendInvals sends invalidations for block b to every cluster in targets;
// each target acknowledges to ackTo's cluster and the ack is credited to
// ackTo. The requester's own cluster is never a target (callers exclude
// it), so acknowledgements always travel the network, as in DASH.
func (m *Machine) sendInvals(h *clusterNode, b int64, targets bitset.Set, ackTo *proc, tx *txState) {
	if n := targets.Count(); n > 0 {
		m.trace(obs.EvInvalFanout, h.id, b, int64(n))
	}
	m.txFanout(h, tx, targets.Count(), false)
	if m.chk != nil {
		m.chk.InvalSent(b, targets.Count())
	}
	// The directory injects invalidations at a finite rate; a broadcast
	// keeps the controller busy and delays requests queued behind it.
	m.occupyDir(h, m.t.InvalSend*sim.Time(targets.Count()))
	targets.ForEach(func(t int) {
		m.sendInval(protocol.Inval, h, t, b, ackTo, tx, false)
	})
}

// sendInval sends one invalidation (or, for a dirty replacement victim, a
// flush) for b from home h to cluster t. The ack is credited to ackTo, or
// returns to the home when ackTo is nil; recall marks a replacement
// recall, whose acks complete the home's RAC entry.
func (m *Machine) sendInval(kind protocol.MsgKind, h *clusterNode, t int, b int64, ackTo *proc, tx *txState, recall bool) {
	r := m.newEv(h, evInval)
	r.p, r.h, r.oc, r.b, r.tx, r.recall = ackTo, h, m.clusters[t], b, tx, recall
	m.sendTx(kind, h.id, t, tx, r.fire)
}

// evInval runs when an invalidation reaches target r.oc: the target's bus
// carries it to the caches.
func evInval(m *Machine, r *ev) {
	done := m.busOp(r.oc, m.t.InvalBus)
	r.run = evInvalBus
	m.at(r.oc, done, r.fire)
}

// evInvalBus applies the invalidation and acknowledges it.
func evInvalBus(m *Machine, r *ev) {
	tc, b := r.oc, r.b
	m.applyInval(tc, b, r.recall)
	if !r.recall {
		m.invalApplied(b)
	}
	to := r.h
	if r.p != nil {
		to = r.p.cl
	}
	r.run = evAck
	m.sendTx(protocol.AckMsg, tc.id, to.id, r.tx, r.fire)
}

// evAck credits an invalidation acknowledgement to its processor, or at the
// home to the replacement recall or the transaction it belongs to.
func evAck(m *Machine, r *ev) {
	p, h, b, tx, recall := r.p, r.h, r.b, r.tx, r.recall
	if p != nil {
		m.freeEv(p.cl, r)
		m.ackArrived(p)
		m.txAck(p.cl, tx)
		return
	}
	m.freeEv(h, r)
	if recall {
		m.racAck(h, b)
	}
	m.txAck(h, tx)
}

// evReadAtHome runs when a ReadReq arrives at the home cluster.
func evReadAtHome(m *Machine, r *ev) {
	h := m.clusters[m.home(r.b)]
	m.txPhase(h, r.tx, obs.PhReqTravel)
	m.trace(obs.EvDirLookup, h.id, r.b, 0)
	done := m.dirOp(h, m.t.Dir)
	r.h, r.run = h, evServeRead
	m.at(h, done, r.fire)
}

// evServeRead serves a read request at the home once the directory is free.
func evServeRead(m *Machine, r *ev) {
	p, b, h, tx := r.p, r.b, r.h, r.tx
	if b == m.debugBlock {
		m.debugf(b, "serveRead p%d/c%d gateBusy=%v", p.id, p.cl.id, h.gate.Busy(b))
	}
	if h.gate.Busy(b) {
		h.gate.Wait(b, r.fire)
		return
	}
	now := m.now(h)
	rc := p.cl.id
	e := h.dir.Lookup(m.dirKey(b), now)
	if e != nil && e.Dirty() && e.Owner() != rc {
		// Three-cluster read: forward to the owner, which replies to the
		// requester and sends a sharing writeback home.
		owner := e.Owner()
		e.ClearDirty()
		m.handleNBEvictions(h, b, e.AddSharer(rc), tx)
		m.drainDirVictims(h)
		h.gate.Lock(b)
		m.txPhase(h, tx, obs.PhDirWait)
		r.oc, r.run = m.clusters[owner], evForward
		m.sendTx(protocol.FwdReadReq, h.id, owner, tx, r.fire)
		return
	}
	// Clean at home (or owned by the requester after a writeback race).
	e2, victim := h.dir.Allocate(m.dirKey(b), now)
	if victim != nil {
		m.replaceEntry(h, victim)
	}
	r.run = evReadDone
	if e2.Dirty() && e2.Owner() == rc {
		if m.clusterHoldsDirty(p.cl, b) {
			// Stale request: fault-injected delay (or a retry) let the
			// cluster's own later write overtake this read, and ownership
			// has already been granted back. A real home would NAK;
			// here the entry is left untouched and the reply merely
			// completes the read, which the overtaking write poisoned.
			if b == m.debugBlock {
				m.debugf(b, "stale read from owner c%d, entry untouched", rc)
			}
			p.cl.poisonedReads[b] = true
			m.txPhase(h, tx, obs.PhDirWait)
			m.sendTx(protocol.DataReply, h.id, rc, tx, r.fire)
			return
		}
		// The owner itself is asking: its copy was evicted, so a
		// writeback is in flight and now stale.
		e2.ClearDirty()
		h.wbExpected[b]++
	}
	// Home-bus snoop: a home cache may hold the block dirty with no
	// directory entry; downgrade it so memory supplies current data.
	for _, q := range h.procs {
		q.h.Downgrade(b)
	}
	m.handleNBEvictions(h, b, e2.AddSharer(rc), tx)
	m.drainDirVictims(h)
	m.txPhase(h, tx, obs.PhDirWait)
	m.sendTx(protocol.DataReply, h.id, rc, tx, r.fire)
}

// evReadDone runs when a read's data reply reaches the requester.
func evReadDone(m *Machine, r *ev) {
	p, h, b, tx, unlock := r.p, r.h, r.b, r.tx, r.unlock
	m.freeEv(p.cl, r)
	m.remoteReadDone(p, b, tx)
	if unlock {
		m.unlockHome(h, b)
	}
}

// evWriteAtHome runs when a WriteReq/UpgradeReq arrives at the home.
func evWriteAtHome(m *Machine, r *ev) {
	h := m.clusters[m.home(r.b)]
	m.txPhase(h, r.tx, obs.PhReqTravel)
	m.trace(obs.EvDirLookup, h.id, r.b, 1)
	done := m.dirOp(h, m.t.Dir)
	r.h, r.run = h, evServeWrite
	m.at(h, done, r.fire)
}

// evServeWrite serves an ownership request at the home once the directory
// is free.
func evServeWrite(m *Machine, r *ev) {
	p, b, h, tx := r.p, r.b, r.h, r.tx
	if b == m.debugBlock {
		m.debugf(b, "serveWrite p%d/c%d upgrade=%v gateBusy=%v", p.id, p.cl.id, r.upgrade, h.gate.Busy(b))
	}
	if h.gate.Busy(b) {
		h.gate.Wait(b, r.fire)
		return
	}
	now := m.now(h)
	rc := p.cl.id
	e, victim := h.dir.Allocate(m.dirKey(b), now)
	if victim != nil {
		m.replaceEntry(h, victim)
	}
	if e.Dirty() && e.Owner() != rc {
		// Ownership transfer between two remote clusters.
		owner := e.Owner()
		e.SetDirty(rc)
		h.gate.Lock(b)
		m.txPhase(h, tx, obs.PhDirWait)
		r.oc, r.run = m.clusters[owner], evForward
		m.sendTx(protocol.FwdWriteReq, h.id, owner, tx, r.fire)
		return
	}
	if e.Dirty() && e.Owner() == rc && !m.clusterHoldsDirty(p.cl, b) {
		// Re-granting to the recorded owner: its in-flight writeback is
		// stale (see wbExpected). If the cluster still holds the block
		// dirty the request itself is the stale artifact (delay or retry
		// reordering) and no writeback is coming — don't expect one.
		h.wbExpected[b]++
	}
	// Clean (or requester-owned): invalidate the sharers. The ownership
	// reply carries the invalidation count; acknowledgements go straight
	// to the requester.
	targets := e.Sharers()
	targets.Remove(rc)
	targets.Remove(h.id)
	// Home-bus snoop invalidates home-cluster copies without messages.
	m.invalidateCluster(h, b, false)
	n := targets.Count()
	h.res.invalHist.Add(n)
	h.res.invalFan.Observe(uint64(n))
	if n > 0 && !e.Precise() {
		m.trace(obs.EvOverflow, h.id, b, int64(n))
	}
	e.SetDirty(rc)
	m.drainDirVictims(h)
	h.gate.Lock(b)
	m.txPhase(h, tx, obs.PhDirWait)
	// The ownership reply carries the requester's ack count: fault-free,
	// the reply strictly precedes every acknowledgement (each ack travels
	// home->target->requester plus a bus transaction, which
	// Config.Validate keeps strictly longer than the direct reply). A
	// delayed or retried reply can be overtaken by its acks, so under
	// faults the count is charged at the home instead.
	r.atReply = !m.faultsOn
	if !r.atReply {
		m.expectAcks(p, n)
	}
	r.n, r.run = n, evWriteDone
	m.replyUnlock(protocol.OwnershipReply, h, r)
	m.sendInvals(h, b, targets, p, tx)
}

// evWriteDone runs when the ownership reply reaches the requester.
func evWriteDone(m *Machine, r *ev) {
	p, h, b, tx := r.p, r.h, r.b, r.tx
	upgrade, unlock := r.upgrade, r.unlock
	if r.atReply {
		m.expectAcks(p, r.n)
	}
	m.freeEv(p.cl, r)
	m.remoteWriteDone(p, b, upgrade, tx)
	if unlock {
		m.unlockHome(h, b)
	}
}

// expectAcks charges n outstanding invalidation acknowledgements to p.
func (m *Machine) expectAcks(p *proc, n int) {
	p.pendingAcks += n
	if m.chk != nil {
		m.chk.AckExpect(p.id, n)
	}
}

// replyUnlock sends reply record r, which completes a gated transaction at
// home r.h, from cluster from to the requester, and unlocks the home's
// gate for r.b when the reply lands. Fault-free, the home unlocks itself
// at the reply's arrival instant through its own event and record, so no
// cluster reaches into another's gate. Under faults the reply may be
// delayed or retried, so the gate stays locked until the reply's step
// actually runs (faults run at width 1, where the requester may touch the
// home's gate).
func (m *Machine) replyUnlock(kind protocol.MsgKind, from *clusterNode, r *ev) {
	h, b, rc := r.h, r.b, r.p.cl.id
	if m.faultsOn {
		r.unlock = true
		m.sendTx(kind, from.id, rc, r.tx, r.fire)
		return
	}
	m.sendTx(kind, from.id, rc, r.tx, r.fire)
	u := m.newEv(from, evUnlock)
	u.h, u.b = h, b
	m.xat(from, h, m.now(from)+m.net.Latency(from.id, rc), u.fire)
}

// evUnlock unlocks the home's gate at a reply's arrival instant.
func evUnlock(m *Machine, r *ev) {
	h, b := r.h, r.b
	m.freeEv(h, r)
	m.unlockHome(h, b)
}

// clusterHoldsDirty reports whether any cache in c currently holds b
// dirty. The home uses it to tell a genuine eviction race (owner's copy
// gone, writeback in flight) from a stale request that message delay or
// retransmission let the cluster's own later ownership acquisition
// overtake — the case a real protocol rejects with a NAK. Impossible
// without fault injection: the fault-free mesh never reorders requests
// on a pair, so the fault-free answer is constant false — which also
// keeps the sharded core from peeking at another shard's caches.
func (m *Machine) clusterHoldsDirty(c *clusterNode, b int64) bool {
	if !m.faultsOn {
		return false
	}
	for _, q := range c.procs {
		if q.h.State(b) == cache.Dirty {
			return true
		}
	}
	return false
}

// fillExclusive installs an exclusive copy after an ownership reply.
func (m *Machine) fillExclusive(p *proc, b int64, upgrade bool) {
	if upgrade && p.h.State(b) != cache.Invalid {
		p.h.Upgrade(b, m.now(p.cl))
		return
	}
	m.fill(p, b, cache.Dirty)
}

// remoteWriteDone completes p's outstanding write and retries any local
// accesses that were parked behind it (they now hit the fresh dirty copy
// over the bus).
func (m *Machine) remoteWriteDone(p *proc, b int64, upgrade bool, tx *txState) {
	m.txPhase(p.cl, tx, obs.PhReplyTravel)
	m.txEnd(p.cl, tx)
	if b == m.debugBlock {
		m.debugf(b, "remoteWriteDone p%d/c%d waiters=%d", p.id, p.cl.id, len(p.cl.writeWaiters[b]))
	}
	m.fillExclusive(p, b, upgrade)
	c := p.cl
	m.complete(p, m.now(c)+m.t.Fill)
	delete(c.pendingWrite, b)
	waiters := c.writeWaiters[b]
	delete(c.writeWaiters, b)
	for _, w := range waiters {
		r := m.newEv(c, evRetryAccess)
		r.p, r.write, r.b = w.p, w.write, b
		m.after(c, m.t.Fill, r.fire)
	}
}

// handleNBEvictions invalidates sharers dropped by a Dir_iNB pointer
// overflow. These are the paper's read-caused invalidation events (Fig 4).
func (m *Machine) handleNBEvictions(h *clusterNode, b int64, ev []core.NodeID, tx *txState) {
	if len(ev) == 0 {
		return
	}
	h.res.invalHist.Add(len(ev))
	h.res.invalFan.Observe(uint64(len(ev)))
	m.trace(obs.EvInvalFanout, h.id, b, int64(len(ev)))
	sent := 0
	for _, v := range ev {
		if v != h.id {
			sent++
		}
	}
	m.txFanout(h, tx, sent, false)
	if m.chk != nil {
		m.chk.InvalSent(b, sent)
	}
	m.occupyDir(h, m.t.InvalSend*sim.Time(len(ev)))
	for _, v := range ev {
		if v != h.id {
			m.sendInval(protocol.Inval, h, v, b, nil, tx, false)
		}
	}
}

// drainDirVictims collects wide-entry victims an Overflow directory
// produced during entry migrations and runs the replacement-invalidation
// flow for each.
func (m *Machine) drainDirVictims(h *clusterNode) {
	src, ok := h.dir.(interface{ TakeVictims() []*sparse.Victim })
	if !ok {
		return
	}
	for _, v := range src.TakeVictims() {
		m.replaceEntry(h, v)
	}
}

// replaceEntry handles a sparse-directory replacement: the victim block's
// cached copies are invalidated, tracked by the home's RAC; requests for
// the victim block are gated until all acknowledgements arrive (§7).
func (m *Machine) replaceEntry(h *clusterNode, victim *sparse.Victim) {
	// The directory stores home-local keys; recover the global block.
	vb, ve := m.keyBlock(victim.Block, h.id), victim.Entry
	m.recallPending(vb, +1)
	if h.gate.Busy(vb) {
		// The victim block has a transaction in flight; its state keeps
		// evolving in ve, so run the replacement when the gate clears.
		r := m.newEv(h, evReplace)
		r.h, r.b, r.ve = h, vb, ve
		h.gate.Wait(vb, r.fire)
		return
	}
	m.sendReplacementInvals(h, vb, ve)
}

// evReplace runs a replacement that waited for the victim block's gate.
func evReplace(m *Machine, r *ev) {
	h, vb, ve := r.h, r.b, r.ve
	m.freeEv(h, r)
	m.sendReplacementInvals(h, vb, ve)
}

func (m *Machine) sendReplacementInvals(h *clusterNode, vb int64, ve core.Entry) {
	if vb == m.debugBlock {
		m.debugf(vb, "recall start h=c%d empty=%v dirty=%v", h.id, ve.Empty(), ve.Dirty())
	}
	if ve.Empty() {
		m.recallPending(vb, -1)
		return
	}
	if ve.Dirty() {
		owner := ve.Owner()
		h.res.replHist.Add(1)
		h.res.replFan.Observe(1)
		m.trace(obs.EvDirEvict, h.id, vb, 1)
		tx := m.txStart(obs.TxEvict, h, vb)
		m.txFanout(h, tx, 1, true)
		m.occupyDir(h, m.t.InvalSend)
		h.gate.Lock(vb)
		h.rac.Start(vb, 1)
		m.sendInval(protocol.Flush, h, owner, vb, nil, tx, true)
		return
	}
	targets := ve.Sharers()
	targets.Remove(h.id)
	n := targets.Count()
	if n == 0 {
		m.recallPending(vb, -1)
		return
	}
	h.res.replHist.Add(n)
	h.res.replFan.Observe(uint64(n))
	m.trace(obs.EvDirEvict, h.id, vb, int64(n))
	tx := m.txStart(obs.TxEvict, h, vb)
	m.txFanout(h, tx, n, true)
	m.occupyDir(h, m.t.InvalSend*sim.Time(n))
	h.gate.Lock(vb)
	h.rac.Start(vb, n)
	targets.ForEach(func(t int) {
		m.sendInval(protocol.Inval, h, t, vb, nil, tx, true)
	})
}

func (m *Machine) racAck(h *clusterNode, vb int64) {
	if h.rac.Ack(vb) {
		if vb == m.debugBlock {
			m.debugf(vb, "recall complete h=c%d", h.id)
		}
		m.recallPending(vb, -1)
		m.checkRecallClean(h, vb)
		h.gate.Unlock(vb)
		m.checkBlock(vb)
	}
}

// recallPending adjusts the per-block count of replacement recalls queued
// or in flight. Checker bookkeeping only: it feeds checkRecallClean's
// exemption for blocks that owe a second recall (see recallsPending).
func (m *Machine) recallPending(vb int64, d int) {
	if m.chk == nil {
		return
	}
	m.recallsPending[vb] += d
	if m.recallsPending[vb] <= 0 {
		delete(m.recallsPending, vb)
	}
}
