// Package mesh models the DASH-style 2-D mesh interconnection network:
// dimension-ordered (X then Y) routing with a fixed per-message overhead
// plus a per-hop latency. Bandwidth contention inside the network is not
// modeled (the paper's traffic results count messages; its latency
// constants already include average network transit).
package mesh

import (
	"fmt"

	"dircoh/internal/obs"
	"dircoh/internal/rng"
	"dircoh/internal/sim"
)

// Config sets the latency model.
type Config struct {
	Nodes  int      // number of network endpoints (clusters)
	Base   sim.Time // fixed cost per message (send+receive overhead)
	PerHop sim.Time // cost per mesh hop
	// PortTime, when non-zero, models finite ejection bandwidth: each
	// delivery occupies the destination's network port for PortTime
	// cycles, so bursts (e.g. broadcast invalidations) queue up.
	PortTime sim.Time
	// Faults, when any rate is nonzero, enables the unreliable-
	// interconnect model: SendFaulty drops, duplicates and delays
	// message copies and blacks out links for transient windows, all
	// deterministically from Faults.Seed, counting each injected fault
	// under mesh.fault.*. The zero value disables the model and
	// registers nothing.
	Faults FaultConfig
	// Metrics, when non-nil, is the registry the mesh records into
	// (mesh.msgs, mesh.hops, mesh.maxhops, mesh.stalls). A private
	// registry is created when nil. The mesh is single-writer; do not
	// share one registry between meshes driven from different goroutines.
	Metrics *obs.Registry
}

// DefaultConfig returns latencies calibrated so that, combined with the
// machine's bus timing, a two-cluster remote access costs ≈60 cycles and a
// three-cluster access ≈80, matching the paper's §5 constants.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, Base: 10, PerHop: 2}
}

// Validate checks the configuration for every error New would otherwise
// panic over, so flag-derived node counts can be rejected with a message
// instead of a stack trace. New still panics: direct library misuse is a
// programming error.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("mesh: node count must be positive (got %d)", c.Nodes)
	}
	return c.Faults.Validate()
}

// Mesh is a 2-D mesh network. Endpoints are numbered row-major. The
// traffic counters live in a metrics registry (see Config.Metrics); the
// handles below are resolved once at construction so recording is a plain
// increment.
type Mesh struct {
	cfg      Config
	w, h     int
	msgs     *obs.Counter
	hops     *obs.Counter
	maxHop   *obs.Gauge
	portFree []sim.Time   // per-endpoint ejection port availability
	stalls   *obs.Counter // deliveries delayed by port contention
	faults   *faultState  // nil when the fault model is disabled
}

// New builds the most nearly square mesh that holds cfg.Nodes endpoints.
// Invalid configurations panic with Validate's error: New delegates to
// Validate so the constructor's checks can never drift from it; callers
// with flag-derived input validate first.
func New(cfg Config) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	w := 1
	for w*w < cfg.Nodes {
		w++
	}
	// Shrink width while the grid still fits, to get the tightest box.
	h := (cfg.Nodes + w - 1) / w
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Mesh{cfg: cfg, w: w, h: h, portFree: make([]sim.Time, cfg.Nodes)}
	m.register(reg)
	if cfg.Faults.Enabled() {
		// The fault counters are registered only when the model is on, so
		// a faults-off run's metrics output is byte-identical to a build
		// without the fault layer.
		m.faults = &faultState{
			cfg:    cfg.Faults,
			stream: rng.NewStream(cfg.Faults.Seed),
			drops:  reg.Counter("mesh.fault.drop"),
			dups:   reg.Counter("mesh.fault.dup"),
			delays: reg.Counter("mesh.fault.delay"),
			outage: reg.Counter("mesh.fault.outage"),
		}
	}
	return m
}

// register resolves the traffic counters in reg.
func (m *Mesh) register(reg *obs.Registry) {
	m.msgs = reg.Counter("mesh.msgs")
	m.hops = reg.Counter("mesh.hops")
	m.maxHop = reg.Gauge("mesh.maxhops")
	m.stalls = reg.Counter("mesh.stalls")
}

// Fork returns a mesh sharing m's geometry, latency model, ejection-port
// table and fault state that records its traffic counters into reg. Forks
// let every sender keep single-writer accounting while ejection-port
// contention stays one table for the whole network; a fork must be driven
// from the same goroutine as m whenever PortTime is nonzero.
func (m *Mesh) Fork(reg *obs.Registry) *Mesh {
	f := *m
	f.register(reg)
	return &f
}

// Dims returns the mesh width and height.
func (m *Mesh) Dims() (w, h int) { return m.w, m.h }

// Nodes returns the number of endpoints.
func (m *Mesh) Nodes() int { return m.cfg.Nodes }

func (m *Mesh) coord(n int) (x, y int) {
	if n < 0 || n >= m.cfg.Nodes {
		panic(fmt.Sprintf("mesh: node %d out of range [0,%d)", n, m.cfg.Nodes))
	}
	return n % m.w, n / m.w
}

// Hops returns the dimension-ordered route length between a and b.
func (m *Mesh) Hops(a, b int) int {
	ax, ay := m.coord(a)
	bx, by := m.coord(b)
	dx := ax - bx
	if dx < 0 {
		dx = -dx
	}
	dy := ay - by
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Latency returns the transit time of one message from a to b without
// recording it.
func (m *Mesh) Latency(a, b int) sim.Time {
	return m.cfg.Base + sim.Time(m.Hops(a, b))*m.cfg.PerHop
}

// MinLatency returns the smallest transit time between two distinct
// endpoints, Base+PerHop (a one-hop neighbor), and false when the mesh has
// a single endpoint and so no cross-node route at all.
func (m *Mesh) MinLatency() (sim.Time, bool) {
	if m.cfg.Nodes < 2 {
		return 0, false
	}
	return m.cfg.Base + m.cfg.PerHop, true
}

// Send records one message from a to b and returns its transit time.
func (m *Mesh) Send(a, b int) sim.Time {
	h := m.Hops(a, b)
	m.msgs.Inc()
	m.hops.Add(uint64(h))
	m.maxHop.Set(int64(h)) // the gauge's high-water mark tracks the max
	return m.cfg.Base + sim.Time(h)*m.cfg.PerHop
}

// SendAt records one message from a to b injected at time now and returns
// its delivery time. With Config.PortTime > 0, the destination's ejection
// port serializes arrivals FCFS (in event order); otherwise delivery is
// purely latency-based, identical to now + Send's return.
func (m *Mesh) SendAt(now sim.Time, a, b int) sim.Time {
	arrive := now + m.Send(a, b)
	if m.cfg.PortTime == 0 {
		return arrive
	}
	if m.portFree[b] > arrive {
		arrive = m.portFree[b]
		m.stalls.Inc()
	}
	m.portFree[b] = arrive + m.cfg.PortTime
	return arrive
}

// PortBacklog returns how far past now node n's ejection port is already
// booked, in cycles — the input-queue depth a message arriving at now would
// wait behind. It is 0 when port modeling is off (PortTime == 0) or the
// port is idle. Reading the backlog does not record anything.
func (m *Mesh) PortBacklog(n int, now sim.Time) sim.Time {
	if m.cfg.PortTime == 0 || m.portFree[n] <= now {
		return 0
	}
	return m.portFree[n] - now
}

// Stats reports cumulative network accounting.
type Stats struct {
	Messages uint64
	Hops     uint64
	MaxHops  int
	Stalls   uint64 // deliveries delayed by ejection-port contention
}

// Stats returns cumulative counters.
func (m *Mesh) Stats() Stats {
	return Stats{
		Messages: m.msgs.Value(),
		Hops:     m.hops.Value(),
		MaxHops:  int(m.maxHop.Max()),
		Stalls:   m.stalls.Value(),
	}
}

// AvgHops returns the mean hops per message (0 if no messages were sent).
func (m *Mesh) AvgHops() float64 {
	if m.msgs.Value() == 0 {
		return 0
	}
	return float64(m.hops.Value()) / float64(m.msgs.Value())
}
