module ebv/benchmark

go 1.24

require ebv v0.0.0

replace ebv => ../
