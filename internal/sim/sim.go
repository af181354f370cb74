// Package sim provides the deterministic discrete-event scheduler.
//
// Events are callbacks scheduled at integer cycle times and fired in a
// total (time, key) order: At keys an event by its insertion sequence, so
// equal-time events fire in insertion order, and AtKey lets the caller
// impose an explicit order (the hook the machine core uses to make event
// order independent of its shard width). A run is therefore fully
// reproducible. Engine (see wheel.go) is a timing wheel; its zero value is
// ready to use.
package sim

// Time is a simulation timestamp in processor cycles.
type Time = uint64

// Event is a scheduled callback.
type Event func()
