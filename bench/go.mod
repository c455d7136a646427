module samplewh/bench

go 1.24

require samplewh v0.0.0

replace samplewh => ../
