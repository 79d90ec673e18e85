package kernels

import "strconv"

// GEMM-family kernels: the tiled shared-memory SGEMM used by the GEMM
// convolution algorithm (and by Winograd-Nonfused's batched stage via
// grid.z), and GEMV2T, the transposed matrix-vector kernel cuDNN uses for
// fully-connected layers (one of the paper's Fig. 7 kernels).

// GemmTile is the square tile edge of the SGEMM kernel.
const GemmTile = 16

// sgemm emits the tiled shared-memory GEMM C = alpha*op(A)*op(B) + beta*C
// for row-major C[M,N]: A is [M,K], or [K,M] with transA; B is [K,N], or
// [N,K] with transB. The library ships the NN, NT and TN layouts. grid.z
// selects a batch slice at the given element strides. Launch with block
// (16,16), grid (ceil(N/16), ceil(M/16), batches).
func sgemm(name string, transA, transB bool) string {
	b := NewBuilder(name)
	pA, pB, pC := b.PtrParam("pA"), b.PtrParam("pB"), b.PtrParam("pC")
	pM, pN, pK := b.U32Param("pM"), b.U32Param("pN"), b.U32Param("pK")
	pSA, pSB, pSC := b.U32Param("pStrideA"), b.U32Param("pStrideB"), b.U32Param("pStrideC")
	pAl, pBe := b.F32Param("pAlpha"), b.F32Param("pBeta")
	as := b.Shared("As", GemmTile*GemmTile*4, 4)
	bs := b.Shared("Bs", GemmTile*GemmTile*4, 4)
	tile := strconv.Itoa(GemmTile)

	tx, ty := b.R(B32), b.R(B32)
	b.I("mov.u32 %s, %%tid.x;", tx)
	b.I("mov.u32 %s, %%tid.y;", ty)
	bx, by, bz := b.R(B32), b.R(B32), b.R(B32)
	b.I("mov.u32 %s, %%ctaid.x;", bx)
	b.I("mov.u32 %s, %%ctaid.y;", by)
	b.I("mov.u32 %s, %%ctaid.z;", bz)
	row, col := b.R(B32), b.R(B32)
	b.I("mad.lo.s32 %s, %s, %d, %s;", row, by, GemmTile, ty)
	b.I("mad.lo.s32 %s, %s, %d, %s;", col, bx, GemmTile, tx)
	// with transA, the M index this thread stages into As (both tiles
	// then load with tx as the fast axis so global reads stay
	// row-contiguous)
	var mcol string
	if transA {
		mcol = b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", mcol, by, GemmTile, tx)
	}

	m, n, k := b.LoadU32(pM), b.LoadU32(pN), b.LoadU32(pK)
	aBase, bBase, cBase := b.LoadPtr(pA), b.LoadPtr(pB), b.LoadPtr(pC)
	// batch offsets
	for _, pair := range [][2]string{{aBase, pSA}, {bBase, pSB}, {cBase, pSC}} {
		stride := b.LoadU32(pair[1])
		off32 := b.R(B32)
		off := b.R(B64)
		b.I("mul.lo.u32 %s, %s, %s;", off32, bz, stride)
		b.I("mul.wide.u32 %s, %s, 4;", off, off32)
		b.I("add.s64 %s, %s, %s;", pair[0], pair[0], off)
	}

	acc := b.MovF32(0)
	zero := b.MovF32(0)
	numTiles := b.R(B32)
	b.I("add.u32 %s, %s, %d;", numTiles, k, GemmTile-1)
	b.I("div.u32 %s, %s, %d;", numTiles, numTiles, GemmTile)

	asAddr, bsAddr := b.R(B32), b.R(B32)
	b.I("mov.u32 %s, %s;", asAddr, as)
	b.I("mov.u32 %s, %s;", bsAddr, bs)
	// this thread's store slots in the tiles
	asSt, bsSt := b.R(B32), b.R(B32)
	lin := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %d, %s;", lin, ty, GemmTile, tx)
	b.I("mad.lo.s32 %s, %s, 4, %s;", asSt, lin, asAddr)
	b.I("mad.lo.s32 %s, %s, 4, %s;", bsSt, lin, bsAddr)

	// stage stores element (i, j) of the row-major [iMax, jMax] operand
	// at base (element (j, i) of a [jMax, iMax] one when swapped) into
	// the tile slot st, guarded via selp clamp: zero outside the matrix
	stage := func(base, i, iMax, j, jMax, st string, swapped bool) {
		p1, _ := b.inBounds(i, iMax, j, jMax)
		idx := b.R(B32)
		if swapped {
			b.I("mad.lo.s32 %s, %s, %s, %s;", idx, j, iMax, i)
		} else {
			b.I("mad.lo.s32 %s, %s, %s, %s;", idx, i, jMax, j)
		}
		b.I("selp.b32 %s, %s, 0, %s;", idx, idx, p1)
		addr := b.ElemAddr(base, idx, 4)
		v := b.R(F32)
		b.I("ld.global.f32 %s, [%s];", v, addr)
		b.I("selp.b32 %s, %s, %s, %s;", v, v, zero, p1)
		b.I("st.shared.f32 [%s], %s;", st, v)
	}

	b.loop("TILE_LOOP", "end_tiles", "0", numTiles, "1", func(t string) {
		// As[ty][tx] = A(row, t*16+tx); with transA both tiles share the
		// K coordinate t*16+ty and As[ty][tx] = A(t*16+ty, mcol)
		kA := b.R(B32)
		kB := kA
		aStride, aStep := GemmTile*4, 4
		if transA {
			b.I("mad.lo.s32 %s, %s, %d, %s;", kA, t, GemmTile, ty)
			stage(aBase, kA, k, mcol, m, asSt, false)
			aStride, aStep = 4, GemmTile*4
		} else {
			b.I("mad.lo.s32 %s, %s, %d, %s;", kA, t, GemmTile, tx)
			stage(aBase, row, m, kA, k, asSt, false)
			kB = b.R(B32)
			b.I("mad.lo.s32 %s, %s, %d, %s;", kB, t, GemmTile, ty)
		}
		// Bs[ty][tx] = op(B)(t*16+ty, col)
		stage(bBase, kB, k, col, n, bsSt, transB)
		b.I("bar.sync 0;")

		// inner product over the tile: acc += As(ty, kk) * Bs[kk][tx]
		asPtr, bsPtr := b.R(B32), b.R(B32)
		b.I("mad.lo.s32 %s, %s, %d, %s;", asPtr, ty, aStride, asAddr)
		b.I("mad.lo.s32 %s, %s, 4, %s;", bsPtr, tx, bsAddr)
		b.loop("INNER", "inner_end", "0", tile, "1", func(string) {
			ea, eb := b.R(F32), b.R(F32)
			b.I("ld.shared.f32 %s, [%s];", ea, asPtr)
			b.I("ld.shared.f32 %s, [%s];", eb, bsPtr)
			b.I("fma.rn.f32 %s, %s, %s, %s;", acc, ea, eb, acc)
			b.I("add.u32 %s, %s, %d;", asPtr, asPtr, aStep)
			b.I("add.u32 %s, %s, %d;", bsPtr, bsPtr, GemmTile*4)
		})
		b.I("bar.sync 0;")
	})

	// write back
	end := b.NewLabel("end")
	pc1, pc2 := b.R(Pred), b.R(Pred)
	b.I("setp.ge.u32 %s, %s, %s;", pc1, row, m)
	b.I("@%s bra %s;", pc1, end)
	b.I("setp.ge.u32 %s, %s, %s;", pc2, col, n)
	b.I("@%s bra %s;", pc2, end)
	cIdx := b.R(B32)
	b.I("mad.lo.s32 %s, %s, %s, %s;", cIdx, row, n, col)
	cAddr := b.ElemAddr(cBase, cIdx, 4)
	alpha, beta := b.LoadF32(pAl), b.LoadF32(pBe)
	b.storeAxpby(cAddr, acc, alpha, beta)
	b.L(end)
	return b.Build()
}

// sgemmTiled is sgemm_tiled: C = alpha*A*B + beta*C for row-major A[M,K],
// B[K,N], C[M,N]. Its grid.z batching lets the same kernel serve both
// plain and batched (Winograd, FFT) GEMMs.
func sgemmTiled() string { return sgemm("sgemm_tiled", false, false) }

// gemv2T computes y = alpha * A^T x + beta * y for row-major A[rows,
// cols]: y[j] = sum_i A[i, j] * x[i]. One thread per output element; this
// is the "GEMV2T" kernel shape cuDNN uses for fully-connected layers.
func gemv2T() string {
	b := NewBuilder("gemv2t")
	pA, pX, pY := b.PtrParam("pA"), b.PtrParam("pX"), b.PtrParam("pY")
	pRows, pCols := b.U32Param("pRows"), b.U32Param("pCols")
	pAl, pBe := b.F32Param("pAlpha"), b.F32Param("pBeta")
	end, j, ext := b.guardTid(pCols)
	cols := ext[0]
	rows := b.LoadU32(pRows)
	aBase, xBase, yBase := b.LoadPtr(pA), b.LoadPtr(pX), b.LoadPtr(pY)

	acc := b.MovF32(0)
	// aPtr walks down column j with stride cols*4
	aPtr := b.ElemAddr(aBase, j, 4)
	xPtr := b.R(B64)
	b.I("mov.u64 %s, %s;", xPtr, xBase)
	strideBytes := b.R(B64)
	b.I("mul.wide.u32 %s, %s, 4;", strideBytes, cols)
	b.loop("ROW_LOOP", "row_end", "0", rows, "1", func(string) {
		b.fmaLoad(acc, aPtr, xPtr)
		b.I("add.s64 %s, %s, %s;", aPtr, aPtr, strideBytes)
		b.I("add.s64 %s, %s, 4;", xPtr, xPtr)
	})

	alpha, beta := b.LoadF32(pAl), b.LoadF32(pBe)
	yAddr := b.ElemAddr(yBase, j, 4)
	b.storeAxpby(yAddr, acc, alpha, beta)
	b.L(end)
	return b.Build()
}

// storeAxpby emits y = alpha·acc + beta·y for the f32 element y at the
// global address addr: the write-back of the GEMM family.
func (b *Builder) storeAxpby(addr, acc, alpha, beta string) {
	old, res := b.R(F32), b.R(F32)
	b.I("ld.global.f32 %s, [%s];", old, addr)
	b.I("mul.f32 %s, %s, %s;", res, acc, alpha)
	b.I("fma.rn.f32 %s, %s, %s, %s;", res, old, beta, res)
	b.I("st.global.f32 [%s], %s;", addr, res)
}
