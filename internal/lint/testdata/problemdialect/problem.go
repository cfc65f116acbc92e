// Package fixture exercises problemdialect with a miniature of the
// service tier's error dialect: Code* constants, problem+json sinks,
// carrier structs, and an OpenAPI generator file that must enumerate
// every code.
package fixture

const (
	CodeBadInput = "bad_input"
	CodeStorage  = "storage"
	// CodeOrphan is declared but never enumerated by the generator.
	CodeOrphan = "orphan" // want `problemdialect: problem code CodeOrphan is not enumerated by the OpenAPI generator \(openapi\.go\)`
)

// notACode has no Code prefix and is outside the dialect entirely.
const notACode = "whatever"

// Problem is the wire shape; Code is a carrier field.
type Problem struct {
	Code   string
	Detail string
}

// chunkOutcome carries a code from decision point to sink.
type chunkOutcome struct {
	code string
	n    int
}

// newProblem is a sink: its second argument is the code.
func newProblem(status int, code string, detail string) Problem {
	// Forwarding the sink's own parameter is allowed: the obligation
	// sits with the callers.
	return Problem{Code: code, Detail: detail}
}

// writeError is a sink whose third argument is the code; forwarding it
// into the inner sink is allowed.
func writeError(w any, status int, code string) {
	_ = newProblem(status, code, "")
}
