package main

// CPU attribution: a runtime/pprof CPU profile of a traced child is
// decoded here (gzipped protobuf, the profile.proto format) without the
// pprof tool, and each sample is charged to one layer of the program.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one profile sample: its stack as function names, innermost
// frame first (inlined calls expanded), and the CPU time it stands for.
type sample struct {
	frames []string
	ns     int64
}

// gcWorkers are the runtime's background GC goroutines' entry points; a
// sample under one of them with no program frame is garbage-collection
// work no layer asked for.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf names the layer a stack's CPU time is charged to: the
// innermost frame that belongs to the program decides. Frames of
// cookieguard/internal/<pkg> go to <pkg>; frames of the root cookieguard
// package go to server when they run under a (*Server) method and to
// pipeline otherwise; the benchmark's own frames (package main) go to
// bench. Stacks with no such frame go to runtime-gc when a background GC
// worker runs them, and to other when not.
func layerOf(frames []string) string {
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "cookieguard/internal/"):
			pkg := strings.TrimPrefix(f, "cookieguard/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		case strings.HasPrefix(f, "cookieguard."):
			for _, g := range frames {
				if strings.HasPrefix(g, "cookieguard.(*Server)") {
					return "server"
				}
			}
			return "pipeline"
		case strings.HasPrefix(f, "main."):
			return "bench"
		}
	}
	for _, f := range frames {
		for _, w := range gcWorkers {
			if f == w {
				return "runtime-gc"
			}
		}
	}
	return "other"
}

// attribute sums the samples' CPU time per layer, in nanoseconds.
func attribute(samples []sample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.frames)] += s.ns
	}
	return out
}

// decodeProfile decodes a gzipped CPU profile into its samples, valued
// by the "cpu" sample type.
func decodeProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs     []string
		types    []int64 // sample_type[i].type as a string index
		rawSmp   []rawSample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]int64{}    // function id → name string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			rawSmp = append(rawSmp, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
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
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vi := len(types) - 1
	for i, t := range types {
		if t >= 0 && t < int64(len(strs)) && strs[t] == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]sample, 0, len(rawSmp))
	for _, rs := range rawSmp {
		if vi >= len(rs.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{ns: int64(rs.values[vi])}
		for _, loc := range rs.locs {
			for _, fn := range locFuncs[loc] {
				if n := funcName[fn]; n >= 0 && n < int64(len(strs)) {
					s.frames = append(s.frames, strs[n])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

type rawSample struct{ locs, values []uint64 }

// appendPacked appends one repeated scalar field's value(s): a varint
// when the field arrived unpacked, every varint in b when packed.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value (b nil) or its length-delimited bytes.
// Fixed-width fields, which profile.proto does not use, are skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}
