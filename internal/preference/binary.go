package preference

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"contextpref/internal/ctxmodel"
	"contextpref/internal/relation"
)

// This file implements a binary encoding of contextual preferences, the
// form a parked profile keeps them in. Following Ciaccia, Martinenghi
// and Torlone's taxonomy-encoded values, a descriptor value is named by
// its place in its parameter's hierarchy, (level, rank), and a
// parameter by its index in the environment, so an encoding holds no
// pointer and decodes to the hierarchy's own strings. In order, the
// encoding holds:
//
//	uvarint  the number of atoms
//	         per atom: uvarint parameter index, byte kind, uvarint
//	         value count (in-atoms only), and each value as uvarint
//	         level, uvarint rank
//	uvarint  the clause attribute's length, then its bytes
//	byte     the clause operator
//	byte     the clause value's kind, then its payload: a uvarint
//	         length and the bytes of a string, a varint, the 8
//	         little-endian bytes of a float64, or one byte of a bool
//	8 bytes  the score's float64 bits, little-endian
//
// An encoding is only meaningful against the environment it was made
// with.

// errTruncated reports an encoding that ends before its last field.
var errTruncated = errors.New("preference: truncated binary encoding")

// AppendBinary appends the binary encoding of p to dst. A descriptor
// that names a parameter or a value outside e fails with the error
// p.Descriptor.Context(e) returns, and dst comes back unchanged.
func AppendBinary(dst []byte, e *ctxmodel.Environment, p Preference) ([]byte, error) {
	start := len(dst)
	d := p.Descriptor
	dst = binary.AppendUvarint(dst, uint64(d.NumAtoms()))
	for i := range d.NumAtoms() {
		var ok bool
		if dst, ok = appendAtom(dst, e, d.Atom(i)); !ok {
			_, err := d.Context(e)
			if err == nil {
				err = fmt.Errorf("preference: cannot encode descriptor %s", d)
			}
			return dst[:start], err
		}
	}
	c := p.Clause
	dst = binary.AppendUvarint(dst, uint64(len(c.Attr)))
	dst = append(dst, c.Attr...)
	dst = append(dst, byte(c.Op), byte(c.Val.Kind()))
	switch c.Val.Kind() {
	case relation.KindString:
		dst = binary.AppendUvarint(dst, uint64(len(c.Val.Str())))
		dst = append(dst, c.Val.Str()...)
	case relation.KindInt:
		dst = binary.AppendVarint(dst, c.Val.Int())
	case relation.KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Val.Float()))
	case relation.KindBool:
		b := byte(0)
		if c.Val.Bool() {
			b = 1
		}
		dst = append(dst, b)
	default:
		return dst[:start], fmt.Errorf("preference: cannot encode a %s clause value", c.Val.Kind())
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Score)), nil
}

// appendAtom appends one atom, reporting false when Context would
// reject it: an unknown parameter, a value outside its hierarchy, a
// wrong value count, or a range whose endpoints sit on different
// levels or out of order. Each value costs one hierarchy lookup.
func appendAtom(dst []byte, e *ctxmodel.Environment, pd ctxmodel.ParamDescriptor) ([]byte, bool) {
	param, ok := e.ParamIndex(pd.Param)
	if !ok {
		return dst, false
	}
	h := e.Param(param).Hierarchy()
	switch pd.Kind {
	case ctxmodel.KindEq:
		ok = len(pd.Values) == 1
	case ctxmodel.KindIn:
		ok = len(pd.Values) > 0
	case ctxmodel.KindRange:
		ok = len(pd.Values) == 2
	}
	if !ok {
		return dst, false
	}
	dst = binary.AppendUvarint(dst, uint64(param))
	dst = append(dst, byte(pd.Kind))
	if pd.Kind == ctxmodel.KindIn {
		dst = binary.AppendUvarint(dst, uint64(len(pd.Values)))
	}
	var first [2]int // the first value's (level, rank), for a range
	for k, v := range pd.Values {
		level, rank, ok := h.Place(v)
		if !ok {
			return dst, false
		}
		if pd.Kind == ctxmodel.KindRange {
			if k == 0 {
				first = [2]int{level, rank}
			} else if level != first[0] || rank < first[1] {
				return dst, false
			}
		}
		dst = binary.AppendUvarint(dst, uint64(level))
		dst = binary.AppendUvarint(dst, uint64(rank))
	}
	return dst, true
}

// Decoder decodes binary-encoded preferences against one environment.
// Descriptor values are the hierarchy's own strings and parameter names
// the environment's, so a decoded preference keeps no copy of them;
// the clause's strings are substrings of the text decoded. A decoded
// descriptor lives in the decoder's atom and value buffers, which the
// next Decode reuses, so decoding a profile whose preferences are each
// used before the next is decoded, as an unpark or a compaction uses
// them, allocates the buffers once. A Decoder is not safe for
// concurrent use.
type Decoder struct {
	env  *ctxmodel.Environment
	pds  []ctxmodel.ParamDescriptor
	vals []string
}

// NewDecoder returns a decoder for encodings made against e.
func NewDecoder(e *ctxmodel.Environment) *Decoder { return &Decoder{env: e} }

// Decode decodes the preference at the front of src, returning it and
// the rest of src. The preference's descriptor is valid until the next
// call, as LineParser.Parse's is.
func (dec *Decoder) Decode(src string) (Preference, string, error) {
	r := reader{s: src}
	atoms := r.uvarint()
	if r.err == nil && atoms > uint64(dec.env.NumParams()) {
		return Preference{}, src, fmt.Errorf("preference: %d atoms for %d parameters", atoms, dec.env.NumParams())
	}
	var d ctxmodel.Descriptor
	if atoms > 0 && r.err == nil {
		dec.pds, dec.vals = dec.pds[:0], dec.vals[:0]
		for range atoms {
			pd, err := dec.atom(&r)
			if err != nil {
				return Preference{}, src, err
			}
			dec.pds = append(dec.pds, pd)
		}
		var err error
		if d, err = ctxmodel.DescriptorFrom(dec.pds); err != nil {
			return Preference{}, src, err
		}
	}
	var c Clause
	c.Attr = r.str()
	c.Op = relation.CmpOp(r.u8())
	kind := relation.Kind(r.u8())
	switch kind {
	case relation.KindString:
		c.Val = relation.S(r.str())
	case relation.KindInt:
		c.Val = relation.I(r.varint())
	case relation.KindFloat:
		c.Val = relation.F(math.Float64frombits(r.u64()))
	case relation.KindBool:
		c.Val = relation.B(r.u8() != 0)
	default:
		if r.err == nil {
			return Preference{}, src, fmt.Errorf("preference: unknown clause value kind %d", kind)
		}
	}
	score := math.Float64frombits(r.u64())
	if r.err != nil {
		return Preference{}, src, r.err
	}
	if c.Op < relation.OpEq || c.Op > relation.OpGe {
		return Preference{}, src, fmt.Errorf("preference: unknown clause operator %d", c.Op)
	}
	p, err := New(d, c, score)
	if err != nil {
		return Preference{}, src, err
	}
	return p, r.s, nil
}

// atom decodes one atom, appending its values to dec.vals; the atom's
// Values are the values it appended, capped at their length.
func (dec *Decoder) atom(r *reader) (ctxmodel.ParamDescriptor, error) {
	param := r.uvarint()
	kind := ctxmodel.DescriptorKind(r.u8())
	n := uint64(1)
	switch kind {
	case ctxmodel.KindEq:
	case ctxmodel.KindIn:
		n = r.uvarint()
	case ctxmodel.KindRange:
		n = 2
	default:
		if r.err == nil {
			r.err = fmt.Errorf("preference: unknown descriptor kind %d", kind)
		}
	}
	if r.err != nil {
		return ctxmodel.ParamDescriptor{}, r.err
	}
	if param >= uint64(dec.env.NumParams()) {
		return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: parameter index %d outside the environment", param)
	}
	// A value takes at least two bytes, which bounds the count an
	// in-atom may claim before its values are read.
	if n == 0 || n > uint64(len(r.s))/2 {
		return ctxmodel.ParamDescriptor{}, errTruncated
	}
	p := dec.env.Param(int(param))
	h := p.Hierarchy()
	at := len(dec.vals)
	for range n {
		level, rank := r.uvarint(), r.uvarint()
		if r.err != nil {
			return ctxmodel.ParamDescriptor{}, r.err
		}
		v, ok := h.ValueAt(int(min(level, math.MaxInt32)), int(min(rank, math.MaxInt32)))
		if !ok {
			return ctxmodel.ParamDescriptor{}, fmt.Errorf("preference: no value at level %d, rank %d of %s", level, rank, p.Name())
		}
		dec.vals = append(dec.vals, v)
	}
	end := len(dec.vals)
	return ctxmodel.ParamDescriptor{Param: p.Name(), Kind: kind, Values: dec.vals[at:end:end]}, nil
}

// reader consumes an encoding's fields from the front of s; the first
// error sticks and every later read returns zero.
type reader struct {
	s   string
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
	r.s = ""
}

func (r *reader) u8() byte {
	if r.err != nil || len(r.s) == 0 {
		r.fail()
		return 0
	}
	b := r.s[0]
	r.s = r.s[1:]
	return b
}

func (r *reader) uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b := r.u8()
		if r.err != nil || (shift == 63 && b > 1) {
			r.fail()
			return 0
		}
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x
		}
	}
	r.fail()
	return 0
}

func (r *reader) varint() int64 {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.s) < 8 {
		r.fail()
		return 0
	}
	var x uint64
	for i := 7; i >= 0; i-- {
		x = x<<8 | uint64(r.s[i])
	}
	r.s = r.s[8:]
	return x
}

// str reads a uvarint length and that many bytes, as a substring.
func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.s)) {
		r.fail()
		return ""
	}
	s := r.s[:n]
	r.s = r.s[n:]
	return s
}
