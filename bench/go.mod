module invarnetx/bench

go 1.22

require invarnetx v0.0.0

replace invarnetx => ../
