// The benchmark is a module of its own so it carries its own build file,
// stays out of the parent's `go build ./...`, and still imports the
// parent's internal packages: the module path is under `repro/`, which is
// what Go's internal-import rule checks.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
