module cowbird/benchmark

go 1.22

require cowbird v0.0.0

replace cowbird => ../
