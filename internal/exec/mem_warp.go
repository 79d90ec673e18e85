package exec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/device"
	"repro/internal/ptx"
)

// Warp-wide loads, stores, atomics and texture fetches. The decoded
// instruction already knows the static space, the element size and the
// vector width; what is left per warp instruction is computing the lane
// addresses (once, into StepInfo.Addrs, which the timing model reads
// anyway) and moving the bytes. Shared, local and parameter memory are Go
// byte slices; global memory is resolved one page per run of same-page
// lanes through a gcursor.

// zeroPage backs reads of global memory nothing was ever written to.
var zeroPage device.Page

// elem decodes the little-endian element at the start of b, extended to a
// register value the way truncToType extends it.
func (d *instr) elem(b []byte) uint64 {
	switch d.esize {
	case 4:
		if d.flags&fSext != 0 {
			return uint64(int64(int32(binary.LittleEndian.Uint32(b))))
		}
		return uint64(binary.LittleEndian.Uint32(b))
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 2:
		if d.flags&fSext != 0 {
			return uint64(int64(int16(binary.LittleEndian.Uint16(b))))
		}
		return uint64(binary.LittleEndian.Uint16(b))
	}
	if d.flags&fSext != 0 {
		return uint64(int64(int8(b[0])))
	}
	return uint64(b[0])
}

// putElem encodes the low esize bytes of v at the start of b.
func (d *instr) putElem(b []byte, v uint64) {
	switch d.esize {
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		b[0] = byte(v)
	}
}

// addresses computes the effective address of every lane in mask.
func (d *instr) addresses(w *Warp, mask uint32, addrs *row) {
	off := d.off
	if d.base < 0 {
		for ; mask != 0; mask &= mask - 1 {
			addrs[lane(mask)] = off
		}
		return
	}
	base := (*row)(w.Regs[d.base:])
	if mask == fullMask {
		for l := range addrs {
			addrs[l] = base[l] + off
		}
		return
	}
	for ; mask != 0; mask &= mask - 1 {
		l := lane(mask)
		addrs[l] = base[l] + off
	}
}

// memSetup fills the static part of info, computes the lane addresses and
// classifies the access from the first active lane.
func (d *instr) memSetup(w *Warp, mask uint32, info *StepInfo) {
	info.IsMem = true
	info.AccSize = int(d.esize) * int(d.vec)
	if mask != 0 {
		d.addresses(w, mask, &info.Addrs)
		info.Space = classifySpace(d.space, info.Addrs[lane(mask)])
	}
}

// spaceMasks is a warp's execution mask split by the space each lane
// addresses.
type spaceMasks struct{ shared, local, param, global uint32 }

// split sorts the lanes of mask by space: all into the decoded static
// space, or lane by lane through the generic-address windows.
func (d *instr) split(mask uint32, addrs *row) (sm spaceMasks) {
	switch d.space {
	case ptx.SpaceShared:
		sm.shared = mask
	case ptx.SpaceLocal:
		sm.local = mask
	case ptx.SpaceParam:
		sm.param = mask
	case ptx.SpaceGeneric, ptx.SpaceNone:
		for m := mask; m != 0; m &= m - 1 {
			l := lane(m)
			switch {
			case device.InSharedWindow(addrs[l]):
				sm.shared |= 1 << l
			case device.InLocalWindow(addrs[l]):
				sm.local |= 1 << l
			}
		}
		sm.global = mask &^ (sm.shared | sm.local)
	default: // global, const
		sm.global = mask
	}
	return sm
}

// backing returns the byte slice behind one lane's access to shared,
// local or parameter memory and the offset of addr within it. Shared and
// local addresses may be windowed generic addresses or raw offsets.
func backing(c *CTA, w *Warp, l int, space ptx.Space, addr uint64) (mem []byte, off uint64) {
	switch space {
	case ptx.SpaceShared:
		if device.InSharedWindow(addr) {
			addr -= device.SharedWindowBase
		}
		return c.Shared, addr
	case ptx.SpaceLocal:
		if device.InLocalWindow(addr) {
			addr -= device.LocalWindowBase
		}
		if len(w.Locals) == 0 {
			return nil, addr
		}
		return w.Locals[l], addr
	}
	return c.Grid.Params, addr
}

// window bounds-checks one lane's n-byte access to a slice-backed space
// and returns the bytes. The comparison is unsigned end to end, so an
// address register holding a negative value is an error, not a panic.
func window(c *CTA, w *Warp, l int, space ptx.Space, addr uint64, n int, what string) ([]byte, error) {
	mem, off := backing(c, w, l, space, addr)
	if off > uint64(len(mem)) || uint64(n) > uint64(len(mem))-off {
		name, short := "param", "params"
		switch space {
		case ptx.SpaceShared:
			name, short = "shared", "smem"
		case ptx.SpaceLocal:
			name, short = "local", "lmem"
		}
		return nil, fmt.Errorf("exec: %s %s out of bounds: off %d size %d (%s %d)", name, what, off, n, short, len(mem))
	}
	return mem[off : off+uint64(n)], nil
}

// gcursor walks global memory for one warp instruction, resolving a page
// once per run of same-page lanes and feeding the capture recorder. read
// and write take any access and leave the page they resolved in the
// cursor; the warp loops test hit/hitw first and go straight to the page
// bytes for the lanes that follow on the same page.
type gcursor struct {
	mem      *device.Memory
	rec      *memRecorder
	pn       uint64
	page     *device.Page // page pn, or &zeroPage when it is not resident
	resident bool
	buf      [32]byte
}

func (m *Machine) cursor() gcursor {
	return gcursor{mem: m.Mem, rec: m.rec, pn: ^uint64(0)}
}

// hit reports whether the n bytes at addr lie inside the page the cursor
// holds, and at which offset.
func (g *gcursor) hit(addr, n uint64) (off uint64, ok bool) {
	off = addr & (device.PageSize - 1)
	return off, addr>>device.PageBits == g.pn && off+n <= device.PageSize
}

// read returns the n bytes at addr — a window into the page, or a copy
// when the access straddles two pages — valid until the next call.
// Memory nothing wrote to reads as zero and stays non-resident.
func (g *gcursor) read(addr, n uint64) []byte {
	off := addr & (device.PageSize - 1)
	var b []byte
	if off+n <= device.PageSize {
		if pn := addr >> device.PageBits; pn != g.pn {
			g.pn, g.page, g.resident = pn, g.mem.Page(pn), true
			if g.page == nil {
				g.page, g.resident = &zeroPage, false
			}
		}
		b = g.page[off : off+n]
	} else {
		b = g.buf[:n]
		g.mem.Read(addr, b)
	}
	if g.rec != nil {
		g.rec.recordRead(addr, b)
	}
	return b
}

// write stores b at addr, faulting the page in.
func (g *gcursor) write(addr uint64, b []byte) {
	if g.rec != nil {
		g.rec.recordWrite(addr, b)
	}
	off := addr & (device.PageSize - 1)
	if off+uint64(len(b)) > device.PageSize {
		g.mem.Write(addr, b)
		return
	}
	if pn := addr >> device.PageBits; pn != g.pn || !g.resident {
		g.pn, g.page, g.resident = pn, g.mem.Touch(pn), true
	}
	copy(g.page[off:], b)
}

func (m *Machine) stepLoad(c *CTA, w *Warp, d *instr, mask uint32, info *StepInfo) error {
	d.memSetup(w, mask, info)
	if mask == 0 {
		return nil
	}
	addrs := &info.Addrs
	var err error
	if d.space == ptx.SpaceParam && d.base < 0 {
		err = m.loadParam(c, w, d, mask)
	} else {
		sm := d.split(mask, addrs)
		if sm.global != 0 {
			m.loadGlobal(w, d, sm.global, addrs)
		}
		if sm.shared != 0 {
			err = m.loadSlice(c, w, d, ptx.SpaceShared, sm.shared, addrs)
		}
		if sm.local != 0 && err == nil {
			err = m.loadSlice(c, w, d, ptx.SpaceLocal, sm.local, addrs)
		}
		if sm.param != 0 && err == nil {
			err = m.loadSlice(c, w, d, ptx.SpaceParam, sm.param, addrs)
		}
	}
	if err != nil {
		return fmt.Errorf("exec: %q: %w", c.Grid.Kernel.Instrs[info.PC].Raw, err)
	}
	return nil
}

// loadParam is ld.param [sym+off]: the address is a decode-time constant,
// so the value is read once and broadcast to the active lanes.
func (m *Machine) loadParam(c *CTA, w *Warp, d *instr, mask uint32) error {
	es := int(d.esize)
	b, err := window(c, w, 0, ptx.SpaceParam, d.off, es*int(d.vec), "load")
	if err != nil {
		return err
	}
	for e := 0; e < int(d.vec); e++ {
		v := d.elem(b[e*es:])
		dst := (*row)(w.Regs[d.dst[e]:])
		for m := mask; m != 0; m &= m - 1 {
			dst[lane(m)] = v
		}
	}
	return nil
}

// loadSlice loads from shared, local or parameter memory.
func (m *Machine) loadSlice(c *CTA, w *Warp, d *instr, space ptx.Space, mask uint32, addrs *row) error {
	es, vec := int(d.esize), int(d.vec)
	if space == ptx.SpaceShared && vec == 1 && es == 4 && d.flags&fSext == 0 {
		// the GEMM tile reads: one bounds check and one 4-byte move per lane
		sh, dst := c.Shared, (*row)(w.Regs[d.dst[0]:])
		for ; mask != 0; mask &= mask - 1 {
			l := lane(mask)
			off := addrs[l]
			if device.InSharedWindow(off) {
				off -= device.SharedWindowBase
			}
			if off > uint64(len(sh)) || 4 > uint64(len(sh))-off {
				_, err := window(c, w, l, space, addrs[l], 4, "load")
				return err
			}
			dst[l] = uint64(binary.LittleEndian.Uint32(sh[off:]))
		}
		return nil
	}
	for ; mask != 0; mask &= mask - 1 {
		l := lane(mask)
		b, err := window(c, w, l, space, addrs[l], es*vec, "load")
		if err != nil {
			return err
		}
		for e := 0; e < vec; e++ {
			w.Regs[int(d.dst[e])+l] = d.elem(b[e*es:])
		}
	}
	return nil
}

// loadGlobal loads from global (or constant) memory.
func (m *Machine) loadGlobal(w *Warp, d *instr, mask uint32, addrs *row) {
	es, vec := uint64(d.esize), int(d.vec)
	n := es * uint64(vec)
	g := m.cursor()
	dst := (*row)(w.Regs[d.dst[0]:])
	for ; mask != 0; mask &= mask - 1 {
		l := lane(mask)
		var b []byte
		if off, ok := g.hit(addrs[l], n); ok {
			b = g.page[off : off+n]
			if g.rec != nil {
				g.rec.recordRead(addrs[l], b)
			}
		} else {
			b = g.read(addrs[l], n)
		}
		if vec == 1 {
			dst[l] = d.elem(b)
			continue
		}
		for e := 0; e < vec; e++ {
			w.Regs[int(d.dst[e])+l] = d.elem(b[uint64(e)*es:])
		}
	}
}

func (m *Machine) stepStore(c *CTA, w *Warp, d *instr, mask uint32, info *StepInfo) error {
	d.memSetup(w, mask, info)
	info.IsStore = true
	if mask == 0 {
		return nil
	}
	addrs := &info.Addrs
	var vals [4]*row
	for e := 0; e < int(d.vec); e++ {
		vals[e] = rowIn(c, w, d.src[e])
	}
	sm := d.split(mask, addrs)
	var err error
	if sm.global != 0 {
		m.storeGlobal(d, sm.global, addrs, &vals)
	}
	if sm.shared != 0 {
		err = m.storeSlice(c, w, d, ptx.SpaceShared, sm.shared, addrs, &vals)
	}
	if sm.local != 0 && err == nil {
		err = m.storeSlice(c, w, d, ptx.SpaceLocal, sm.local, addrs, &vals)
	}
	if sm.param != 0 && err == nil {
		err = fmt.Errorf("exec: store to parameter space")
	}
	if err != nil {
		return fmt.Errorf("exec: %q: %w", c.Grid.Kernel.Instrs[info.PC].Raw, err)
	}
	return nil
}

// rowIn is rowOf for the memory handlers, which real PTX never hands a
// special register: one is materialised on the heap if it happens.
func rowIn(c *CTA, w *Warp, code int32) *row {
	if s, ok := sregOf(code); ok {
		r := new(row)
		sregRow(c, w, s, r)
		return r
	}
	return c.Grid.prog.rowOf(code, w.Regs)
}

// storeSlice stores to shared or local memory.
func (m *Machine) storeSlice(c *CTA, w *Warp, d *instr, space ptx.Space, mask uint32, addrs *row, vals *[4]*row) error {
	es, vec := int(d.esize), int(d.vec)
	for ; mask != 0; mask &= mask - 1 {
		l := lane(mask)
		b, err := window(c, w, l, space, addrs[l], es*vec, "store")
		if err != nil {
			return err
		}
		for e := 0; e < vec; e++ {
			d.putElem(b[e*es:], vals[e][l])
		}
	}
	return nil
}

// storeGlobal stores to global memory.
func (m *Machine) storeGlobal(d *instr, mask uint32, addrs *row, vals *[4]*row) {
	es, vec := uint64(d.esize), int(d.vec)
	n := es * uint64(vec)
	g := m.cursor()
	for ; mask != 0; mask &= mask - 1 {
		l := lane(mask)
		off, ok := g.hit(addrs[l], n)
		ok = ok && g.resident
		b := g.buf[:n] // staged, for the lane that has to resolve the page
		if ok {
			b = g.page[off : off+n]
		}
		for e := 0; e < vec; e++ {
			d.putElem(b[uint64(e)*es:], vals[e][l])
		}
		switch {
		case !ok:
			g.write(addrs[l], b)
		case g.rec != nil:
			g.rec.recordWrite(addrs[l], b)
		}
	}
}

func (m *Machine) stepAtom(c *CTA, w *Warp, d *instr, mask uint32, info *StepInfo) error {
	d.memSetup(w, mask, info)
	info.IsAtomic = true
	if mask == 0 {
		return nil
	}
	in := &c.Grid.Kernel.Instrs[info.PC]
	addrs := &info.Addrs
	bRow, cRow := rowIn(c, w, d.src[0]), rowIn(c, w, d.src[1])
	size := uint64(d.esize)
	g := m.cursor()
	var buf [8]byte
	// Lanes update memory one after another in lane order, so lanes that
	// hit the same address accumulate.
	for ; mask != 0; mask &= mask - 1 {
		l := lane(mask)
		addr := addrs[l]
		space := classifySpace(d.space, addr)
		var cell []byte
		switch space {
		case ptx.SpaceParam:
			return fmt.Errorf("exec: %q: exec: store to parameter space", in.Raw)
		case ptx.SpaceShared, ptx.SpaceLocal:
			var err error
			if cell, err = window(c, w, l, space, addr, int(size), "atomic"); err != nil {
				return fmt.Errorf("exec: %q: %w", in.Raw, err)
			}
		default:
			cell = g.read(addr, size)
		}
		old := d.elem(cell)
		b := bRow[l]
		var newV uint64
		switch in.Atom {
		case ptx.AtomAdd:
			switch {
			case in.T == ptx.F64:
				newV = f64bits(bitsF64(old) + bitsF64(b))
			case in.T.Float():
				newV = f32bits(bitsF32(old) + bitsF32(b))
			default:
				newV = truncToType(uint64(int64(old)+int64(b)), in.T)
			}
		case ptx.AtomMin, ptx.AtomMax:
			v, err := minMaxOp(in, in.T, old, b, in.Atom == ptx.AtomMin)
			if err != nil {
				return err
			}
			newV = v
		case ptx.AtomExch:
			newV = b
		case ptx.AtomAnd:
			newV = old & b
		case ptx.AtomOr:
			newV = old | b
		case ptx.AtomXor:
			newV = old ^ b
		case ptx.AtomCas:
			if old == truncToType(b, in.T) {
				newV = cRow[l]
			} else {
				newV = old
			}
		}
		if space == ptx.SpaceShared || space == ptx.SpaceLocal {
			d.putElem(cell, newV)
		} else {
			d.putElem(buf[:], newV)
			g.write(addr, buf[:size])
		}
		if d.ndst > 0 {
			w.Regs[int(d.dst[0])+l] = old
		}
	}
	return nil
}

func (m *Machine) stepTex(c *CTA, w *Warp, d *instr, mask uint32, info *StepInfo) error {
	in := &c.Grid.Kernel.Instrs[info.PC]
	if m.Tex == nil {
		return fmt.Errorf("exec: %q: no texture registry attached", in.Raw)
	}
	arr, err := m.Tex.LookupByName(in.Src()[0].Sym)
	if err != nil {
		return fmt.Errorf("exec: %q: %w", in.Raw, err)
	}
	if m.rec != nil {
		// texture arrays live outside the recorded device memory, so a
		// capture that reads one cannot be validated later
		m.rec.unsound = true
	}
	info.IsMem = true
	info.Space = ptx.SpaceTex
	info.AccSize = 16
	// a 1-D fetch has no second coordinate: its source is the zero row
	xs, ys := rowIn(c, w, d.src[0]), rowIn(c, w, d.src[1])
	for ; mask != 0; mask &= mask - 1 {
		l := lane(mask)
		x, y := int(int32(xs[l])), int(int32(ys[l]))
		texel := arr.Fetch(x, y)
		for e := 0; e < int(d.ndst); e++ {
			w.Regs[int(d.dst[e])+l] = f32bits(texel[e])
		}
		info.Addrs[l] = uint64(y*arr.Width+x) * 4
	}
	return nil
}
