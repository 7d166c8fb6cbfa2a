module github.com/parallax-arch/parallax/bench

go 1.22

require github.com/parallax-arch/parallax v0.0.0

replace github.com/parallax-arch/parallax => ../
