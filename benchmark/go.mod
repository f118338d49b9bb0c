module urcgc/benchmark

go 1.22

require urcgc v0.0.0

replace urcgc => ../
