module trigene/bench

go 1.22

require trigene v0.0.0

replace trigene => ../
