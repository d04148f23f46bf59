package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes CPU to layers that have no public call
// boundary inside a visit (jsdsl, dom, cookiejar, ...) by summing a CPU
// profile's flat samples per package. The profile is runtime/pprof's
// gzipped profile.proto; this file decodes just the fields that needs:
// samples (location ids, values), locations (lines → function ids),
// functions (name string index) and the string table.

var errProto = errors.New("malformed profile")

// protoReader walks protobuf wire format.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errProto
}

// next returns the next field's number, wire type, and — for
// length-delimited fields — its bytes; varint fields come back in v.
func (r *protoReader) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errProto
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		r.b = r.b[4:]
	default:
		err = errProto
	}
	return field, wire, v, data, err
}

// uints decodes a repeated uint64 field occurrence, packed or not.
func uints(wire int, v uint64, data []byte, dst []uint64) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// flatByFunction decodes a gzipped CPU profile and returns the sample
// count of every leaf function (innermost inlined frame of the first
// location of each sample).
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]uint64{} // function id → string index
		strs     []string
	)
	r := protoReader{raw}
	for len(r.b) > 0 {
		field, _, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var locs, vals []uint64
			sr := protoReader{data}
			for len(sr.b) > 0 {
				f, w, v, d, err := sr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					locs, err = uints(w, v, d, locs)
				case 2:
					vals, err = uints(w, v, d, vals)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[0])})
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			lr := protoReader{data}
			for len(lr.b) > 0 {
				f, _, v, d, err := lr.next()
				if err != nil {
					return nil, err
				}
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine: // first Line is the innermost frame
					ln := protoReader{d}
					for len(ln.b) > 0 {
						lf, _, lv, _, err := ln.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fn = lv
						}
					}
					haveLine = true
				}
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			fr := protoReader{data}
			for len(fr.b) > 0 {
				f, _, v, _, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make(map[string]int64)
	for _, s := range samples {
		idx := funcName[locFunc[s.loc]]
		name := "?"
		if idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// layerOf maps a function name to the layer the benchmark reports:
// the last path element of a cookieguard/internal package, "runtime" for
// the Go runtime, "" for anything else.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type parameters may contain dots and slashes
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "runtime":
		return "runtime"
	case strings.HasPrefix(pkg, "cookieguard/internal/"):
		return strings.TrimPrefix(pkg, "cookieguard/internal/")
	}
	return ""
}
