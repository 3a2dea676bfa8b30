package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuModules are the modules cpu_share.<module> reports: the repro
// packages on the workload paths, net/http, and the Go runtime's
// allocator and collector.
var cpuModules = []string{"engine", "comm", "bitvec", "graph", "matmul", "paths", "gather",
	"domset", "subgraph", "mst", "sketch", "vcover", "exp", "serve", "ledger", "net_http", "runtime_gc"}

// cpuShares reads a CPU profile written by runtime/pprof and returns,
// for every module in cpuModules plus "other", the share of samples
// whose innermost frame (self time) lies in that module.
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	leaves, err := leafSamples(data)
	if err != nil {
		return nil, fmt.Errorf("cpu profile %s: %w", path, err)
	}
	out := map[string]float64{"other": 0}
	for _, m := range cpuModules {
		out[m] = 0
	}
	var total float64
	for fn, n := range leaves {
		total += float64(n)
		m := moduleOf(fn)
		if _, ok := out[m]; !ok {
			m = "other"
		}
		out[m] += float64(n)
	}
	if total > 0 {
		for m := range out {
			out[m] /= total
		}
	}
	return out, nil
}

// moduleOf maps a fully qualified function name to its module.
func moduleOf(fn string) string {
	pkg, name := fn, ""
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg, name = fn[:slash+1+dot], fn[slash+2+dot:]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "runtime" && isMemoryManager(name):
		return "runtime_gc"
	}
	return pkg
}

// memoryManagerPrefixes name the runtime functions of the allocator and
// the garbage collector (marking, sweeping, write barriers, heap).
// memclr and memmove stay out: program code such as clear() and copy()
// lands there too.
var memoryManagerPrefixes = []string{
	"gc", "mallocgc", "newobject", "makeslice", "growslice", "nextFree",
	"scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "findObject", "markroot",
	"markBits", "sweepone", "bgsweep", "bgscavenge", "wbBuf", "bulkBarrier", "heapBits", "typePointers",
	"(*mcache)", "(*mcentral)", "(*mheap)", "(*mspan)", "(*gcWork)", "(*gcBits)", "(*gcControllerState)",
	"(*pageAlloc)", "(*pallocBits)", "(*sweepLocked)", "(*wbBuf)", "(*scavengerState)", "(*gcCPULimiterState)",
}

func isMemoryManager(name string) bool {
	for _, p := range memoryManagerPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// leafSamples decodes an uncompressed profile.proto message and sums
// the first sample value (the sample count) by the innermost function
// of each sample's leaf location. It reads only the fields it needs:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (packed), 2 value (packed)
//	Location: 1 id, 4 line;  Line: 1 function_id
//	Function: 1 id, 2 name (string table index)
func leafSamples(data []byte) (map[string]int64, error) {
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string index
		strs     []string
	)
	err := protoFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			first, firstVal := true, true
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return packed(v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2:
					return packed(v, b, func(x uint64) {
						if firstVal {
							s.value, firstVal = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id, fn uint64
			seenLine := false
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil // later lines are the callers it was inlined into
					}
					seenLine = true
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
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
			var id, name uint64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
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
	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

var errProto = errors.New("malformed profile")

// protoFields walks one protobuf message, calling f with each field's
// number and either its value (wire types 0, 1, 5; b is nil) or its
// bytes (wire type 2; b is non-nil).
func protoFields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			payload, b = b[n:n+int(l):n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := f(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// packed calls f for each value of a repeated varint field, which may
// arrive packed (b non-nil) or as one unpacked value.
func packed(v uint64, b []byte, f func(uint64)) error {
	if b == nil {
		f(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		f(x)
		b = b[n:]
	}
	return nil
}
