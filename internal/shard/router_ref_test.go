package shard

// splitBoxRef is the split as it was before queries split into pooled
// scratch: fresh parts and one fresh bounds buffer per box. It is
// FuzzSplitBox's oracle for Router.split, which reuses both.
func splitBoxRef(r *Router, lo, hi []int) []Part {
	n := 0
	for i := 0; i < r.NumShards(); i++ {
		if max(lo[0], r.cuts[i]) < min(hi[0], r.cuts[i+1]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	d := len(lo)
	buf := make([]int, 2*n*d)
	parts := make([]Part, 0, n)
	for i := 0; i < r.NumShards(); i++ {
		s, e := r.cuts[i], r.cuts[i+1]
		plo, phi := max(lo[0], s), min(hi[0], e)
		if plo >= phi {
			continue
		}
		l, h := buf[:d:d], buf[d:2*d:2*d]
		buf = buf[2*d:]
		copy(l, lo)
		copy(h, hi)
		l[0], h[0] = plo-s, phi-s
		parts = append(parts, Part{Shard: i, Lo: l, Hi: h})
	}
	return parts
}
