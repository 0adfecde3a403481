package sim

import (
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// leafBudgets is each unmetered leaf loop's allowance per branch:
// instructions between the loop head and its back-edge (-1: not
// bounded), and operands that read or write the stack there. zeroLoop
// and globalLoop keep every value in a register; pathLoop has more
// loop-live values than registers and re-reads two of its arguments
// (the table mask and the chunk length) on every branch (DESIGN.md §5).
var leafBudgets = map[string]struct{ instrs, stack int }{
	"zeroLoop":   {15, 0},
	"globalLoop": {21, 0},
	"pathLoop":   {-1, 2},
}

// TestLeafLoopShape compiles this package with -gcflags=-S and checks
// each leaf loop in leafBudgets: it finds the loop by its back-edge (a
// jump to an earlier offset), counts the instructions from the jump's
// target to the jump (NOP padding and PCDATA/FUNCDATA markers do not
// execute as work and are not counted), and counts the (SP) and (FP)
// operands among them.
func TestLeafLoopShape(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-S", "-o", os.DevNull, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-S: %v\n%s", err, out)
	}
	loops := leafLoops(string(out))
	for name, budget := range leafBudgets {
		body, ok := loops[name]
		if !ok {
			t.Errorf("%s: no loop found in the assembly", name)
			continue
		}
		var stack []string
		for _, ins := range body {
			if strings.Contains(ins, "(SP)") || strings.Contains(ins, "(FP)") {
				stack = append(stack, ins)
			}
		}
		t.Logf("%s: %d instructions per branch, %d stack operands", name, len(body), len(stack))
		if budget.instrs >= 0 && len(body) > budget.instrs {
			t.Errorf("%s: %d instructions per branch, budget %d:\n%s",
				name, len(body), budget.instrs, strings.Join(body, "\n"))
		}
		if len(stack) > budget.stack {
			t.Errorf("%s: %d stack operands in the loop, budget %d:\n%s",
				name, len(stack), budget.stack, strings.Join(stack, "\n"))
		}
	}
}

// leafLoops parses the compiler's -S listing and returns, for each
// function named in leafBudgets, the instructions ("OP\targs") of its
// innermost loop: from the target of its first back-edge to that
// back-edge.
func leafLoops(listing string) map[string][]string {
	type ins struct {
		off  int
		text string
	}
	funcs := map[string][]ins{}
	var cur string
	for _, line := range strings.Split(listing, "\n") {
		if head, _, ok := strings.Cut(line, " STEXT"); ok && !strings.HasPrefix(line, "\t") {
			cur = head[strings.LastIndexByte(head, '.')+1:]
			if _, want := leafBudgets[cur]; !want {
				cur = ""
			}
			continue
		}
		// "\t0x001e 00030 (file.go:147)\tMOVQ\t(AX), DX"
		f := strings.Split(line, "\t")
		if cur == "" || len(f) < 3 || !strings.HasPrefix(f[1], "0x") {
			continue
		}
		pos := strings.Fields(f[1])
		off, err := strconv.Atoi(pos[1])
		if err != nil {
			continue
		}
		switch f[2] {
		case "PCDATA", "FUNCDATA", "NOP":
			continue
		}
		funcs[cur] = append(funcs[cur], ins{off, strings.Join(f[2:], "\t")})
	}
	loops := map[string][]string{}
	for name, body := range funcs {
		for i, in := range body {
			op, arg, _ := strings.Cut(in.text, "\t")
			target, err := strconv.Atoi(arg)
			if !strings.HasPrefix(op, "J") || err != nil || target > in.off {
				continue
			}
			for _, b := range body[:i+1] {
				if b.off >= target {
					loops[name] = append(loops[name], b.text)
				}
			}
			break
		}
	}
	return loops
}
