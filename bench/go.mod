module github.com/ides-go/ides/bench

go 1.24

require github.com/ides-go/ides v0.0.0

replace github.com/ides-go/ides => ../
