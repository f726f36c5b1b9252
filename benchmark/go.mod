module interopdb/benchmark

go 1.22

require interopdb v0.0.0

replace interopdb => ../
