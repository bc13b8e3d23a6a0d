package netlist

// ElementNameForTest exposes appendElementName to the external test
// package.
func ElementNameForTest(kind byte, name string) string {
	return string(appendElementName(nil, kind, name))
}
