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

// attribution splits a CPU profile's time into buckets: one per traced
// module, "runtime.malloc", "runtime.gc" and "other".
type attribution struct {
	ns      map[string]int64
	totalNs int64
	samples int64
}

// attribute reads a gzipped pprof CPU profile and charges each sample's
// CPU time to one bucket by its call stack, leaf first:
//   - runtime.gc if any frame is GC work (background mark or sweep, mark
//     assist, write-barrier flush);
//   - else runtime.malloc if any frame is runtime.mallocgc;
//   - else the innermost frame that belongs to a traced module, so a
//     runtime helper (memmove, map access) or a helper package (geom,
//     packet) counts toward the module that called it;
//   - else other: the harness, the scheduler, the profiler itself.
func attribute(gz []byte) (attribution, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return attribution{}, err
	}
	traced := map[string]bool{}
	for _, m := range tracedModules {
		traced[m] = true
	}
	a := attribution{ns: map[string]int64{}}
	for _, s := range p.samples {
		if p.cpuIndex >= len(s.values) {
			return attribution{}, errors.New("sample without a cpu value")
		}
		ns := s.values[p.cpuIndex]
		a.ns[bucket(p.stack(s.locations), traced)] += ns
		a.totalNs += ns
		a.samples++
	}
	return a, nil
}

func bucket(stack []string, traced map[string]bool) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") {
			return "runtime.malloc"
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "gmp/internal/"); ok {
			if mod, _, _ := strings.Cut(rest, "."); traced[mod] {
				return mod
			}
		}
	}
	return "other"
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.wbBuf")
}

// addProfile records the traced round's attribution; frames is the round's
// frame count.
func addProfile(m map[string]float64, a attribution, frames int64) {
	sec := func(b string) float64 { return float64(a.ns[b]) / 1e9 }
	share := func(ns int64) float64 { return ratio(ns, a.totalNs) }
	perFrame := func(ns int64) float64 { return ratio(ns, frames) }
	for _, mod := range tracedModules {
		m[mod+".self_s"] = sec(mod)
		m[mod+".share"] = share(a.ns[mod])
	}
	runtimeNs := a.ns["runtime.malloc"] + a.ns["runtime.gc"]
	m["runtime.malloc_s"] = sec("runtime.malloc")
	m["runtime.gc_s"] = sec("runtime.gc")
	m["other.self_s"] = sec("other")
	for _, mod := range perFrameModules {
		ns := a.ns[mod]
		if mod == "runtime" {
			ns = runtimeNs
		}
		m[mod+".ns_per_frame"] = perFrame(ns)
	}
	m["trace.attributed_frac"] = share(a.totalNs - a.ns["other"])
	m["trace.samples"] = float64(a.samples)
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	cpuIndex  int
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name index in strings
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// stack returns the function names of a sample, leaf first, with inlined
// calls expanded.
func (p *profile) stack(locs []uint64) []string {
	var out []string
	for _, l := range locs {
		for _, fid := range p.locations[l] {
			if i := p.functions[fid]; i >= 0 && i < int64(len(p.strings)) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// parseProfile decodes the fields of profile.proto that attribute uses:
// sample_type (1), sample (2), location (4), function (5) and
// string_table (6). The profile's encoding is plain protobuf, so a small
// wire-format reader suffices and the benchmark needs nothing beyond the
// standard library.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{cpuIndex: -1, locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	var sampleTypes [][2]int64 // (type, unit) string indices
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			var t [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2:
			var s sample
			err := fields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return varints(v, pb, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5:
			var id uint64
			name := int64(-1)
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	for i, t := range sampleTypes {
		if t[0] >= 0 && t[0] < int64(len(p.strings)) && p.strings[t[0]] == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("decoding profile: no cpu sample type")
	}
	return p, nil
}

// fields walks the protobuf fields of msg. For a varint field fn gets its
// value; for a length-delimited field, its bytes. Fixed-width fields are
// skipped.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated integer field in either encoding: a single
// varint (b nil) or a packed run.
func varints(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
