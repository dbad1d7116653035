module github.com/gates-middleware/gates/bench

go 1.22

require github.com/gates-middleware/gates v0.0.0

replace github.com/gates-middleware/gates => ../
