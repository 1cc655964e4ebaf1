package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// frame is one function on a sampled stack.
type frame struct {
	fn   string // fully qualified, e.g. repro/internal/serve.(*shard).flushOnce
	file string // source path as recorded by the binary
}

// stackSample is one CPU profile sample: its stack, leaf first with
// inlined frames expanded innermost first, and the CPU nanoseconds it
// stands for.
type stackSample struct {
	stack []frame
	ns    int64
}

// cpuProfiler wraps runtime/pprof's CPU profile into an in-memory
// buffer, so a phase can be profiled without touching the file system.
type cpuProfiler struct{ buf bytes.Buffer }

// startCPUProfile samples at runtime/pprof's 100 Hz. Higher rates do
// not buy samples on Linux: the per-thread CPU timers fire on kernel
// ticks, so extra requested samples are simply lost.
func startCPUProfile() (*cpuProfiler, error) {
	p := &cpuProfiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfiler) stop() ([]stackSample, error) {
	pprof.StopCPUProfile()
	return parseCPUProfile(p.buf.Bytes())
}

// parseCPUProfile decodes the gzipped profile.proto that
// runtime/pprof writes, keeping only what layer attribution needs. It
// is a minimal protobuf reader for the fields below (field numbers
// from github.com/google/pprof/proto/profile.proto):
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (packed), 2 value (packed)
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name, 4 filename
func parseCPUProfile(gz []byte) ([]stackSample, error) {
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
		values []uint64
	}
	type rawFunc struct{ name, file uint64 }
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]rawFunc{}
	)
	top := pbReader{b: raw}
	for top.more() {
		field, wire := top.key()
		if wire != 2 {
			top.skip(wire)
			continue
		}
		msg := pbReader{b: top.bytes()}
		switch field {
		case 2:
			var s rawSample
			for msg.more() {
				f, w := msg.key()
				switch f {
				case 1:
					s.locs = msg.uints(w, s.locs)
				case 2:
					s.values = msg.uints(w, s.values)
				default:
					msg.skip(w)
				}
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			for msg.more() {
				f, w := msg.key()
				switch {
				case f == 1 && w == 0:
					id = msg.varint()
				case f == 4 && w == 2:
					line := pbReader{b: msg.bytes()}
					for line.more() {
						lf, lw := line.key()
						if lf == 1 && lw == 0 {
							fns = append(fns, line.varint())
						} else {
							line.skip(lw)
						}
					}
					top.err = errors.Join(top.err, line.err)
				default:
					msg.skip(w)
				}
			}
			locs[id] = fns
		case 5:
			var id uint64
			var fn rawFunc
			for msg.more() {
				f, w := msg.key()
				switch {
				case f == 1 && w == 0:
					id = msg.varint()
				case f == 2 && w == 0:
					fn.name = msg.varint()
				case f == 4 && w == 0:
					fn.file = msg.varint()
				default:
					msg.skip(w)
				}
			}
			funcs[id] = fn
		case 6:
			strs = append(strs, string(msg.b))
			msg.b = nil
		}
		top.err = errors.Join(top.err, msg.err)
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		// A CPU profile's values are [samples/count, cpu/nanoseconds].
		ss := stackSample{ns: int64(s.values[len(s.values)-1])}
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				fn := funcs[fid]
				ss.stack = append(ss.stack, frame{fn: str(fn.name), file: str(fn.file)})
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// pbReader walks protobuf wire-format fields; the first malformed
// byte sets err and ends the walk.
type pbReader struct {
	b   []byte
	err error
}

func (p *pbReader) more() bool { return p.err == nil && len(p.b) > 0 }

func (p *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			break
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.fail("truncated varint")
	return 0
}

func (p *pbReader) key() (field, wire int) {
	k := p.varint()
	return int(k >> 3), int(k & 7)
}

func (p *pbReader) bytes() []byte {
	n := p.varint()
	if n > uint64(len(p.b)) {
		p.fail("truncated field")
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

// uints appends a repeated integer field, packed (wire 2) or not.
func (p *pbReader) uints(wire int, dst []uint64) []uint64 {
	switch wire {
	case 0:
		return append(dst, p.varint())
	case 2:
		packed := pbReader{b: p.bytes()}
		for packed.more() {
			dst = append(dst, packed.varint())
		}
		p.err = errors.Join(p.err, packed.err)
		return dst
	}
	p.skip(wire)
	return dst
}

func (p *pbReader) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.advance(8)
	case 2:
		p.bytes()
	case 5:
		p.advance(4)
	default:
		p.fail(fmt.Sprintf("wire type %d", wire))
	}
}

func (p *pbReader) advance(n int) {
	if len(p.b) < n {
		p.fail("truncated field")
		return
	}
	p.b = p.b[n:]
}

func (p *pbReader) fail(msg string) {
	if p.err == nil {
		p.err = errors.New(msg)
	}
	p.b = nil
}

// pkgOf returns the import path of a fully qualified function name:
// everything before the first '.' after the last '/'.
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
