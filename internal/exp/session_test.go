package exp

// ts is the shared session the in-package tests drive: default
// parallelism, a one-worker machine core, no instrumentation. Tests that
// exercise a specific pool width or observer build their own Session.
var ts = NewSession(Observer{}, 0, 0)
