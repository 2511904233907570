module github.com/adjusted-objects/dego/benchmark

go 1.24

require github.com/adjusted-objects/dego v0.0.0

replace github.com/adjusted-objects/dego => ../
