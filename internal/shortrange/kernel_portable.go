package shortrange

// applyRangesPortable is the portable Go range body, and the statement of
// the summation order every body shares. Per target and per span:
//
//   - the span's full 4-blocks go into four lane sums per component, lane L
//     summing the terms of neighbors j≡L (mod 4) in index order — what one
//     128-bit vector of lane sums does in the assembly bodies;
//   - a span with at least one 4-block adds (l0+l2)+(l1+l3) to the
//     target's total S;
//   - the span's n&3 tail terms are then added to S one by one in index
//     order;
//
// and after the last span the target receives a += gm·S. Each term is
// d·f_SR(s) exactly as FSR computes it, with the cutoff as the branchless
// cutMask select. Every product that feeds a sum is rounded explicitly, so
// no GOARCH can fuse it into an FMA.
func applyRangesPortable(k *Kernel, lx, ly, lz, px, py, pz []float32, ranges [][2]int32, ax, ay, az []float32) {
	rc2, eps, gm := k.rc2, k.eps, k.gm
	c0, c1, c2, c3, c4, c5 := k.c[0], k.c[1], k.c[2], k.c[3], k.c[4], k.c[5]
	for i, xi := range lx {
		yi, zi := ly[i], lz[i]
		var sx, sy, sz float32
		for _, r := range ranges {
			nx := px[r[0]:r[1]]
			ny := py[r[0]:r[1]]
			nz := pz[r[0]:r[1]]
			ny = ny[:len(nx)]
			nz = nz[:len(nx)]
			n4 := len(nx) &^ 3
			var lanex, laney, lanez [4]float32
			for j := range nx {
				dx, dy, dz := nx[j]-xi, ny[j]-yi, nz[j]-zi
				s := float32(dx*dx) + float32(dy*dy) + float32(dz*dz)
				f := (rsqrt3(s+eps) - poly5(s, c0, c1, c2, c3, c4, c5)) * cutMask(s, rc2)
				if j >= n4 {
					sx += float32(dx * f)
					sy += float32(dy * f)
					sz += float32(dz * f)
					continue
				}
				lanex[j&3] += float32(dx * f)
				laney[j&3] += float32(dy * f)
				lanez[j&3] += float32(dz * f)
				if j == n4-1 {
					sx += (lanex[0] + lanex[2]) + (lanex[1] + lanex[3])
					sy += (laney[0] + laney[2]) + (laney[1] + laney[3])
					sz += (lanez[0] + lanez[2]) + (lanez[1] + lanez[3])
				}
			}
		}
		ax[i] += float32(gm * sx)
		ay[i] += float32(gm * sy)
		az[i] += float32(gm * sz)
	}
}
