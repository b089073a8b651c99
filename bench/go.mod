module paragraph/bench

go 1.22

require paragraph v0.0.0

replace paragraph => ../
