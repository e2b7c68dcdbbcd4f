package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The per-layer CPU table is read from a runtime/pprof CPU profile taken
// around the measured phase. The profile is decoded here (a gzipped
// profile.proto) so the benchmark needs nothing beyond the standard library.

// cpuBuckets are the layers CPU samples are charged to, in report order.
// The repository layers come first, then the runtime's own work, then
// whatever is left.
var cpuBuckets = []string{
	"sim", "flownet", "mpi", "cudart", "halo", "exchange", "fault",
	"telemetry", "jobspec", "serve", "part", "placement", "machine", "stencil",
	"runtime.gc", "runtime.malloc", "runtime.sched", "other",
}

const repoModule = "github.com/nodeaware/stencil"

// repoLayer maps a function name to the repository package that defines it:
// "github.com/nodeaware/stencil/internal/flownet.(*Network).rebalance" is
// in flownet, "github.com/nodeaware/stencil.New" in stencil. Packages the
// table has no bucket for report false.
func repoLayer(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoModule)
	if !ok {
		return "", false
	}
	var pkg string
	switch {
	case strings.HasPrefix(rest, "."):
		pkg = "stencil"
	case strings.HasPrefix(rest, "/internal/"):
		pkg = rest[len("/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
	default:
		return "", false
	}
	for _, b := range cpuBuckets {
		if b == pkg {
			return pkg, true
		}
	}
	return "", false
}

// Runtime functions that do garbage collection, allocation, or goroutine
// scheduling (channel handoff, parking, the scheduler loop, OS-thread
// sleep/wake). Names are matched after "runtime." with any ".funcN" closure
// suffix removed; a name ending in ")" matches every method of that
// receiver. Every "runtime.gc*" function is GC work as well.
var (
	gcFrames = frameSet("_GC", "bgsweep", "bgscavenge", "sweepone", "(*sweepLocked)", "(*mspan).sweep",
		"markroot", "markrootBlock", "markrootSpans", "scanobject", "scanblock", "scanstack", "scanframeworker",
		"greyobject", "findObject", "wbBufFlush", "wbBufFlush1", "(*gcWork)", "(*gcControllerState)",
		"(*scavengerState)", "(*pageAlloc).scavenge", "typePointers", "(*mspan).typePointersOf",
		"bulkBarrierPreWrite", "stopTheWorldWithSema", "startTheWorldWithSema", "forEachP")
	mallocFrames = frameSet("mallocgc", "mallocgcSmallNoscan", "mallocgcSmallScanNoHeader",
		"mallocgcSmallScanHeader", "mallocgcLarge", "mallocgcTiny", "newobject", "newarray", "makeslice",
		"makeslicecopy", "growslice", "makemap", "makemap_small", "makechan", "(*mcache)", "(*mcentral)",
		"(*mheap)", "nextFreeFast", "(*mspan).nextFreeIndex", "heapSetType", "heapBitsSetType",
		"rawstring", "rawbyteslice", "rawruneslice", "(*fixalloc)", "persistentalloc", "sysAlloc",
		"(*pageAlloc).alloc", "memclrNoHeapPointersChunked")
	schedFrames = frameSet("chansend", "chansend1", "chanrecv", "chanrecv1", "chanrecv2", "closechan",
		"selectgo", "block", "gopark", "goparkunlock", "goready", "ready", "park_m", "schedule",
		"findRunnable", "mcall", "goexit0", "gosched_m", "goschedImpl", "Gosched", "runqput", "runqget",
		"runqgrab", "runqsteal", "stealWork", "checkTimers", "netpoll", "notesleep", "notetsleep",
		"notetsleepg", "notewakeup", "futex", "futexsleep", "futexwakeup", "wakep", "startm", "stopm",
		"handoffp", "execute", "newproc", "newproc1", "gfget", "gfput", "lock2", "unlock2", "lockWithRank",
		"unlockWithRank", "semasleep", "semawakeup", "osyield", "usleep", "sysmon", "retake", "casgstatus",
		"send", "recv", "sendDirect", "recvDirect", "sellock", "selunlock", "acquirep", "releasep",
		"resetspinning", "injectglist", "semacquire1", "semrelease1", "(*waitq)", "entersyscall",
		"exitsyscall", "reentersyscall", "exitsyscallfast", "mPark", "(*timers)", "(*timer)", "mstart1",
		"schedEnableUser")
)

func frameSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// inFrameSet reports whether the runtime function base (without the
// "runtime." prefix) is in set, directly or as a method of a listed
// receiver.
func inFrameSet(set map[string]bool, base string) bool {
	if set[base] {
		return true
	}
	if strings.HasPrefix(base, "(*") {
		if i := strings.Index(base, ")."); i > 0 && set[base[:i+1]] {
			return true
		}
	}
	return false
}

// runtimeKind classifies one frame as "runtime.gc", "runtime.malloc",
// "runtime.sched", or "" for anything else.
func runtimeKind(fn string) string {
	base, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return ""
	}
	// Drop closure suffixes: "gcBgMarkWorker.func2" -> "gcBgMarkWorker".
	if i := strings.Index(base, ".func"); i > 0 {
		base = base[:i]
	}
	switch {
	case strings.HasPrefix(base, "gc") || inFrameSet(gcFrames, base):
		return "runtime.gc"
	case inFrameSet(mallocFrames, base):
		return "runtime.malloc"
	case inFrameSet(schedFrames, base):
		return "runtime.sched"
	}
	return ""
}

// bucketOf charges one sample, given its stack innermost frame first. The
// frames below the innermost repository frame decide: GC work wins over
// allocation, which wins over scheduling; failing those the sample belongs
// to that repository frame's layer, so memmove or fnv called from halo
// counts as halo. A stack with no repository frame and no classified
// runtime frame is "other".
func bucketOf(stack []string) string {
	var gc, malloc, sched bool
	layer := "other"
	for _, fn := range stack {
		if l, ok := repoLayer(fn); ok {
			layer = l
			break
		}
		switch runtimeKind(fn) {
		case "runtime.gc":
			gc = true
		case "runtime.malloc":
			malloc = true
		case "runtime.sched":
			sched = true
		}
	}
	switch {
	case gc:
		return "runtime.gc"
	case malloc:
		return "runtime.malloc"
	case sched:
		return "runtime.sched"
	}
	return layer
}

// cpuTable accumulates CPU seconds per bucket over one or more profiles.
type cpuTable struct {
	seconds map[string]float64
	samples int64
}

func newCPUTable() *cpuTable { return &cpuTable{seconds: make(map[string]float64)} }

func (t *cpuTable) add(p *cpuProfile) {
	for _, s := range p.samples {
		t.seconds[bucketOf(s.stack)] += float64(s.nanos) / 1e9
		t.samples += s.count
	}
}

func (t *cpuTable) total() float64 {
	var sum float64
	for _, v := range t.seconds {
		sum += v
	}
	return sum
}

// coverage is the share of profiled CPU time charged to a named bucket.
func (t *cpuTable) coverage() float64 {
	tot := t.total()
	if tot == 0 {
		return 0
	}
	return 1 - t.seconds["other"]/tot
}

// profiled runs fn under a CPU profile and adds the profile to t.
func (t *cpuTable) profiled(fn func()) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return err
	}
	t.add(p)
	return nil
}

// cpuProfile is what the layer table needs from a profile: each sample's
// stack as function names, innermost first, and its CPU time.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack []string
	count int64 // profiler ticks the stack was seen on
	nanos int64
}

// parseCPUProfile decodes a gzipped profile.proto as written by
// runtime/pprof.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes []int64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location -> function ids, innermost first
		funcNames   = map[uint64]int64{}    // function -> string index
	)
	err = eachField(raw, func(num, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type = 1, unit = 2}
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample: {location_id = 1, value = 2}
			var s rawSample
			err := eachField(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, wt, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wt, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location: {id = 1, line = 4: Line{function_id = 1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
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
		case 5: // function: {id = 1, name = 2}
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
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	count, cpu := -1, -1
	for i, t := range sampleTypes {
		switch str(t) {
		case "samples":
			count = i
		case "cpu":
			cpu = i
		}
	}
	if count < 0 || cpu < 0 {
		return nil, errors.New("cpu profile: no samples/cpu value types")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if count >= len(s.values) || cpu >= len(s.values) {
			return nil, errors.New("cpu profile: sample without samples/cpu values")
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				stack = append(stack, str(funcNames[f]))
			}
		}
		p.samples = append(p.samples, profSample{stack: stack, count: s.values[count], nanos: s.values[cpu]})
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, handing fn the field
// number, wire type, and either the varint value or the length-delimited
// bytes.
func eachField(buf []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		buf = buf[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which runtime/pprof writes
// packed (wire type 2) or one value per field (wire type 0).
func appendVarints(dst *[]uint64, wt int, v uint64, b []byte) error {
	if wt == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
