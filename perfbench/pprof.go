package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped profile.proto that runtime/pprof writes —
// just the fields folding needs — and folds CPU samples by repository
// module.

// profSample is one stack with its CPU nanoseconds, leaf first, as function
// names with inlined frames expanded.
type profSample struct {
	cpuNS int64
	stack []string
}

// decodeCPUProfile returns the samples of a CPU profile.
func decodeCPUProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		types     []int64 // sample_type[i].type as string-table index
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]int64{}    // function id → name index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, w, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			continue
		}
		ps := profSample{cpuNS: s.values[cpu]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				ps.stack = append(ps.stack, str(funcNames[f]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of a protobuf message, passing varint
// values in v and length-delimited payloads in b.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field in either encoding: one value
// per field (wire 0) or packed (wire 2).
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// moduleLayers are the repository modules that get a <layer>.self_s metric.
var moduleLayers = []string{
	"sim", "ndpunit", "task", "msg", "mailbox", "dram", "metadata", "sketch",
	"bridge", "sched", "host", "workloads", "core", "metrics", "trace",
}

// selfLayers adds "gc", the background collector, and "other", everything
// else (the harness, the scheduler), so the folded values sum to the
// profiled CPU.
var selfLayers = append(append([]string(nil), moduleLayers...), "gc", "other")

const modulePrefix = "ndpbridge/internal/"

// layerOf charges a stack to the innermost frame of a listed module, so
// runtime helpers (map probes, malloc, write barriers) and unlisted utility
// modules (stats, energy, config) count against the layer that called them.
// Stacks with no such frame go to gc when a background collector frame is on
// them, else to other.
func layerOf(stack []string) string {
	for _, fn := range stack {
		mod, ok := strings.CutPrefix(fn, modulePrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		for _, l := range moduleLayers {
			if l == mod {
				return mod
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	return "other"
}

// foldSelf sums CPU seconds per layer; the values add up to the profile's
// total CPU.
func foldSelf(samples []profSample) map[string]float64 {
	out := make(map[string]float64, len(selfLayers))
	for _, l := range selfLayers {
		out[l] = 0
	}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.cpuNS) / 1e9
	}
	return out
}
