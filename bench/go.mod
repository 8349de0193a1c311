module tracklog/bench

go 1.22

require tracklog v0.0.0

replace tracklog => ../
