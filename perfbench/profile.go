package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// layerOf maps a symbolized function name to the layer it is charged to:
// presto's own packages by package name (the apps under "apps"), the Go
// runtime as "runtime", and the rest of the standard library and this
// benchmark under their package names (folded into "other" when
// reported).
func layerOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "presto/internal/apps/"):
		return "apps"
	case strings.HasPrefix(pkg, "presto/internal/"):
		rest := strings.TrimPrefix(pkg, "presto/internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return pkg
}

// cpuByLayer decodes a gzipped pprof CPU profile and sums each sample's
// CPU nanoseconds onto the layer of its leaf frame (the innermost
// function, inlined frames included).
func cpuByLayer(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	// profile.proto field numbers: Profile{sample=2, location=4,
	// function=5, string_table=6}; Sample{location_id=1, value=2};
	// Location{id=1, line=4}; Line{function_id=1}; Function{id=1, name=2}.
	type sampleRec struct {
		leafLoc uint64
		value   int64
	}
	var (
		samples  []sampleRec
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]int64{}  // function id -> string index
		strs     []string
	)
	err = fields(raw, func(f int, v uint64, b []byte) error {
		switch f {
		case 2:
			var s sampleRec
			first := true
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return eachVarint(v, b, func(x uint64) {
						if first {
							s.leafLoc, first = x, false
						}
					})
				case 2:
					// CPU profiles carry [samples, nanoseconds]; keep the last.
					return eachVarint(v, b, func(x uint64) { s.value = int64(x) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			seenLine := false
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil
					}
					seenLine = true
					return fields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leafLoc]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[layerOf(name)] += float64(s.value)
	}
	return out, nil
}

var errProto = errors.New("malformed profile")

// fields walks one protobuf message, calling fn with each field number
// and either its varint value (data nil) or its length-delimited bytes.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, whether it arrived
// packed (data) or as a single varint (v).
func eachVarint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errProto
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// heapRecords returns the current heap profile (as of the last completed
// GC).
func heapRecords() []runtime.MemProfileRecord {
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		m, ok := runtime.MemProfile(recs, true)
		if ok {
			return recs[:m]
		}
		n = m
	}
}

// stackLayer charges an allocation to the first frame outside the Go
// runtime: the code that asked for the memory, not mallocgc.
var stackLayerCache = map[[32]uintptr]string{}

func stackLayer(r *runtime.MemProfileRecord) string {
	if l, ok := stackLayerCache[r.Stack0]; ok {
		return l
	}
	l := "runtime"
	frames := runtime.CallersFrames(r.Stack())
	for {
		f, more := frames.Next()
		if fl := layerOf(f.Function); fl != "runtime" && f.Function != "" {
			l = fl
			break
		}
		if !more {
			break
		}
	}
	stackLayerCache[r.Stack0] = l
	return l
}

// unsample scales a sampled heap-profile value back to an estimate of the
// true total, as pprof does: each record is a Poisson sample at
// MemProfileRate bytes.
func unsample(bytes, objects int64) float64 {
	rate := runtime.MemProfileRate
	if bytes == 0 || objects == 0 || rate <= 1 {
		return float64(bytes)
	}
	avg := float64(bytes) / float64(objects)
	return float64(bytes) / (1 - math.Exp(-avg/float64(rate)))
}

// allocByLayer sums the bytes allocated since process start by layer.
func allocByLayer() map[string]float64 {
	out := map[string]float64{}
	for _, r := range heapRecords() {
		out[stackLayer(&r)] += unsample(r.AllocBytes, r.AllocObjects)
	}
	return out
}

func inuseByLayer() map[string]float64 {
	out := map[string]float64{}
	for _, r := range heapRecords() {
		out[stackLayer(&r)] += unsample(r.InUseBytes(), r.InUseObjects())
	}
	return out
}

// heapPeak watches the live heap during a traced pass and keeps the heap
// profile's in-use split from the highest live heap it saw.
type heapPeak struct {
	quit, done chan struct{}
	peak       uint64
	inuse      map[string]float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			h.check()
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// check refolds the heap profile when the live heap has grown 5% past the
// last peak; the profile and /gc/heap/live both describe the last GC.
func (h *heapPeak) check() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if live := s[0].Value.Uint64(); h.inuse == nil || float64(live) > 1.05*float64(h.peak) {
		h.peak = live
		h.inuse = inuseByLayer()
	}
}

// stop ends the watch and returns the in-use split at the peak.
func (h *heapPeak) stop() map[string]float64 {
	close(h.quit)
	<-h.done
	return h.inuse
}
