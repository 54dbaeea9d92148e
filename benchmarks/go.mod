module hacc/benchmarks

go 1.24

require hacc v0.0.0

replace hacc => ../
