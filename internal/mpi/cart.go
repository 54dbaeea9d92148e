package mpi

// BalancedDims factors n into d near-equal factors (largest first),
// the way MPI_Dims_create does. Used to choose process grids.
func BalancedDims(n, d int) []int {
	dims := make([]int, d)
	for i := range dims {
		dims[i] = 1
	}
	// Repeatedly peel the largest prime factor onto the smallest dim.
	factors := primeFactors(n)
	for i := len(factors) - 1; i >= 0; i-- {
		min := 0
		for j := 1; j < d; j++ {
			if dims[j] < dims[min] {
				min = j
			}
		}
		dims[min] *= factors[i]
	}
	// Sort descending so the X dimension gets the largest factor.
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if dims[j] > dims[i] {
				dims[i], dims[j] = dims[j], dims[i]
			}
		}
	}
	return dims
}

func primeFactors(n int) []int {
	var fs []int
	for p := 2; p*p <= n; p++ {
		for n%p == 0 {
			fs = append(fs, p)
			n /= p
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}
