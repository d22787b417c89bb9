package kpl

import (
	"fmt"
	"strings"
)

// Dispatches runs every thread of the launch on k's compiled program and
// returns how many instructions exec dispatched, prologue included: each
// segment's length times its entries — the product fold takes with the
// tallies — so the hot loop carries no counter for it. The listing is for the
// failure message of whoever pins the count.
func Dispatches(k *Kernel, env *Env) (n int64, listing string, err error) {
	p, err := Compile(k)
	if err != nil {
		return 0, "", err
	}
	fr, err := p.bind(env)
	if err != nil {
		return 0, "", err
	}
	defer putFrame(fr)
	fr.tid, fr.hi, fr.step, fr.done = 0, env.NThreads, 1, 0
	if pc, idx := exec(p.code, fr); pc >= 0 {
		return 0, "", p.faultError(fr, pc, idx)
	}
	n = int64(len(p.pro))
	var prev uint64
	for i := range p.segs {
		sg := &p.segs[i]
		var h uint64
		for _, e := range sg.in {
			h += fr.cnt[e]
		}
		if sg.fallIn {
			h += prev
		}
		prev = h
		n += int64(h) * int64(sg.end-sg.start)
	}
	return n, p.listing(), nil
}

// opcodeNames parallels the opcode list in compile.go; TestOpcodeNames checks
// that it names every opcode once.
const numOpcodes = opForNext + 1

var opcodeNames = [numOpcodes]string{
	"halt", "move",
	"add.i", "sub.i", "mul.i", "div.i", "mod.i", "min.i", "max.i",
	"add.f32", "sub.f32", "mul.f32", "div.f32", "mod.f32", "min.f32", "max.f32",
	"add.f64", "sub.f64", "mul.f64", "div.f64", "mod.f64", "min.f64", "max.f64",
	"lt.i", "le.i", "gt.i", "ge.i", "eq.i", "ne.i",
	"lt.f32", "le.f32", "gt.f32", "ge.f32", "eq.f32", "ne.f32",
	"lt.f64", "le.f64", "gt.f64", "ge.f64", "eq.f64", "ne.f64",
	"and.i", "or.i", "xor.i", "shl.i", "shr.i",
	"mad.i",
	"mad.f32", "rmad.f32", "msub.f32", "rmsub.f32", "rmad.f64",
	"neg.i", "neg.f32", "neg.f64", "abs.i", "abs.f32", "abs.f64", "not.i",
	"floor.f32", "floor.f64", "sqrt.f32", "sqrt.f64", "rsqrt.f32", "rsqrt.f64",
	"exp.f32", "exp.f64", "log.f32", "log.f64", "sin.f32", "sin.f64", "cos.f32", "cos.f64",
	"cvt.i.f64", "cvt.i.f32", "cvt.f64.i", "cvt.f32.i", "round.f32", "widen.f32",
	"sel.i", "sel.f32", "sel.f64",
	"ld.i32", "ld.f32", "ld.f64", "ldmad.f32", "ldmad.f64",
	"chk.st", "chk.at", "st.i32", "st.f32", "st.f64", "at.i32", "at.f32", "at.f64",
	"jump", "jz.i", "jz.f32", "jz.f64",
	"jnlt.i", "jnle.i", "jngt.i", "jnge.i", "jneq.i", "jnne.i",
	"jnlt.f32", "jnle.f32", "jngt.f32", "jnge.f32", "jneq.f32", "jnne.f32",
	"jnlt.f64", "jnle.f64", "jngt.f64", "jnge.f64", "jneq.f64", "jnne.f64",
	"for.init", "for.next",
}

// listing prints the prologue and the thread stream: pc, opcode, operands.
func (p *Program) listing() string {
	var b strings.Builder
	for _, part := range []struct {
		name string
		code []word
	}{{"prologue", p.pro}, {"thread", p.code}} {
		fmt.Fprintf(&b, "%s:\n", part.name)
		for pc, w := range part.code {
			fmt.Fprintf(&b, "%4d  %-10s d=%-3d a=%-3d b=%-3d c=%d\n", pc, opcodeNames[w.op()], w.d(), w.a(), w.b(), w.c())
		}
	}
	return b.String()
}
