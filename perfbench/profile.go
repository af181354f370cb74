package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profSample is one CPU profile sample: its stack as function names,
// leaf first, and its sample count.
type profSample struct {
	stack []string
	n     int64
}

// parseProfile decodes a gzipped runtime/pprof CPU profile (the
// profile.proto message) into samples. It reads only the fields the
// layer attribution needs: samples, locations, functions, strings.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, profSample{stack: stack, n: int64(s.values[0])})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the protobuf fields of msg, passing varint values as v
// and length-delimited payloads as b.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0: // varint
			v, n = uvarint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1: // fixed64
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5: // fixed32
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may be packed (b
// holds the varints) or not (v is one value).
func appendPacked(xs []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(xs, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		xs = append(xs, x)
		b = b[n:]
	}
	return xs
}

// uvarint decodes one varint, returning its length (0 if malformed).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// selfLayers are the layers <layer>.self_s reports, in output order.
var selfLayers = []string{"apps", "sim", "machine", "cache", "core", "sparse", "mesh", "obs", "check", "campaign", "gc", "runtime", "other"}

// packageLayer maps the repository's packages to layers.
var packageLayer = map[string]string{
	"apps": "apps", "tango": "apps", "exp": "apps", "trace": "apps",
	"sim":     "sim",
	"machine": "machine", "protocol": "machine", "stats": "machine", "rng": "machine",
	"cache": "cache",
	"core":  "core", "bitset": "core",
	"sparse":   "sparse",
	"mesh":     "mesh",
	"obs":      "obs",
	"check":    "check",
	"campaign": "campaign", "runner": "campaign", "stress": "campaign", "config": "campaign",
}

// funcPackage returns the import path of a profiled function name such
// as "dircoh/internal/sim.(*Engine).Step".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// isGC reports whether a runtime function belongs to the allocator or
// the collector.
func isGC(fn string) bool {
	switch fn {
	case "runtime.mallocgc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.sweepone", "runtime.GC":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// sampleLayer sorts one sample into a layer. A leaf in the Go runtime
// goes to gc when the stack passes through the allocator or a GC worker,
// else to runtime. Any other leaf goes to the layer of the nearest
// repository package on the stack, so standard-library helpers
// (container/heap under the event engine, say) count for their caller.
func sampleLayer(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if leaf := funcPackage(stack[0]); leaf == "runtime" || strings.HasPrefix(leaf, "runtime/") || strings.HasPrefix(leaf, "internal/runtime/") {
		for _, fn := range stack {
			if isGC(fn) {
				return "gc"
			}
		}
		return "runtime"
	}
	for _, fn := range stack {
		if pkg, ok := strings.CutPrefix(funcPackage(fn), "dircoh/internal/"); ok {
			if layer, ok := packageLayer[pkg]; ok {
				return layer
			}
			return "other"
		}
	}
	return "other"
}

// layerShares returns each layer's share of the samples.
func layerShares(samples []profSample) map[string]float64 {
	var total int64
	counts := map[string]int64{}
	for _, s := range samples {
		counts[sampleLayer(s.stack)] += s.n
		total += s.n
	}
	shares := map[string]float64{}
	for layer, n := range counts {
		shares[layer] = float64(n) / float64(total)
	}
	return shares
}
