module dynalloc/bench

go 1.22

require dynalloc v0.0.0

replace dynalloc => ../
