// The benchmark is a module of its own so that it builds, vets and tests
// apart from the program it referees. The module path sits under repro/
// so that it may import repro/internal/...; the replace directive points
// at the checkout the benchmark is run from.
module repro/bench

go 1.23

require repro v0.0.0

replace repro => ../
