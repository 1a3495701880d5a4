module netchain/benchmark

go 1.24

require netchain v0.0.0

replace netchain => ../
