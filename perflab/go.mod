module distperm/perflab

go 1.24

require distperm v0.0.0

replace distperm => ../
