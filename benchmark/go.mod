module genomeatscale/benchmark

go 1.24

require genomeatscale v0.0.0

replace genomeatscale => ../
