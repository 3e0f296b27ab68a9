//go:build !kernelpad

package sisap

// kernelPad marks where bench/placement-sweep.sh pads sqSums' 6-d body, in a
// build tagged kernelpad; here it is empty and compiles to nothing.
func kernelPad(after bool) {}
