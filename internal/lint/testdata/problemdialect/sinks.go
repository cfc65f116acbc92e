package fixture

// constantAtSink is the canonical shape.
func constantAtSink(w any) {
	writeError(w, 400, CodeBadInput)
}

// literalAtSink leaks an undeclared code onto the wire.
func literalAtSink(w any) {
	writeError(w, 400, "oops") // want `problemdialect: problem code reaching writeError is not a Code\* constant`
}

// emptyCodeAtSink: "" is the explicit no-code marker, not a dialect leak.
func emptyCodeAtSink(w any) {
	writeError(w, 500, "")
}

// parseQ pins its second result to the dialect: every return is a Code*
// constant or "".
func parseQ(q string) (int, string) {
	if q == "" {
		return 0, CodeBadInput
	}
	return 1, ""
}

// tracedVarAtSink: errCode's only assignment is a multi-value call
// whose callee provably returns dialect codes at that position.
func tracedVarAtSink(w any, q string) {
	n, errCode := parseQ(q)
	if errCode != "" {
		writeError(w, 400, errCode)
	}
	_ = n
}

// freeQ does not pin its result: one return carries request input.
func freeQ(q string) (int, string) {
	if q == "" {
		return 0, CodeBadInput
	}
	return 1, q
}

// untracedVarAtSink: the variable may hold anything freeQ produced.
func untracedVarAtSink(w any, q string) {
	_, errCode := freeQ(q)
	writeError(w, 400, errCode) // want `problemdialect: problem code reaching writeError is not a Code\* constant`
}

// carrierLitConstant and carrierLitLiteral: composite literals of a
// carrier type are checked at their keyed code fields.
func carrierLitConstant() chunkOutcome {
	return chunkOutcome{code: CodeStorage, n: 1}
}

func carrierLitLiteral() chunkOutcome {
	return chunkOutcome{code: "disk_full", n: 0} // want `problemdialect: problem code reaching chunkOutcome\.code is not a Code\* constant`
}

// carrierAssigns: field assignments are checked too, and reading a
// carrier field back out is allowed (its writes were checked).
func carrierAssigns(out *chunkOutcome, p *Problem) {
	out.code = CodeStorage
	p.Code = out.code
	out.code = "late mutation" // want `problemdialect: problem code reaching chunkOutcome\.code is not a Code\* constant`
}

// waivedLiteral is the sanctioned escape hatch.
func waivedLiteral(w any) {
	//mood:allow problemdialect -- fixture: probe code used only by the fault harness
	writeError(w, 500, "fault_probe")
}
