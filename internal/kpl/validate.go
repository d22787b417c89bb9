package kpl

import "fmt"

// Validate checks the kernel for structural errors — references to
// undeclared buffers or parameters, writes to read-only buffers (which the
// engines share between workers and with SampleStats instead of copying),
// duplicate or missing loop labels, and break statements outside loops — and
// assigns labels to unlabeled loops.
// Back ends call it once at registration time so that launch-time failures
// are limited to data-dependent errors.
func (k *Kernel) Validate() error {
	if k.Name == "" {
		return fmt.Errorf("kpl: kernel with empty name")
	}
	seenBuf := map[string]bool{}
	for _, b := range k.Bufs {
		if b.Name == "" {
			return fmt.Errorf("kpl: %s: buffer with empty name", k.Name)
		}
		if seenBuf[b.Name] {
			return fmt.Errorf("kpl: %s: duplicate buffer %q", k.Name, b.Name)
		}
		seenBuf[b.Name] = true
	}
	seenParam := map[string]bool{}
	for _, p := range k.Params {
		if p.Name == "" {
			return fmt.Errorf("kpl: %s: parameter with empty name", k.Name)
		}
		if seenParam[p.Name] {
			return fmt.Errorf("kpl: %s: duplicate parameter %q", k.Name, p.Name)
		}
		seenParam[p.Name] = true
	}

	v := &validator{k: k, labels: map[string]bool{}}
	if err := v.stmts(k.Body, 0); err != nil {
		return err
	}
	return nil
}

type validator struct {
	k      *Kernel
	labels map[string]bool
	nAuto  int
}

func (v *validator) stmts(ss []Stmt, loopDepth int) error {
	for _, s := range ss {
		switch x := s.(type) {
		case *LetStmt:
			if x.Name == "" {
				return fmt.Errorf("kpl: %s: let with empty variable name", v.k.Name)
			}
			if err := v.expr(x.E); err != nil {
				return err
			}
		case *StoreStmt:
			if v.k.Buf(x.Buf) == nil {
				return fmt.Errorf("kpl: %s: store to undeclared buffer %q", v.k.Name, x.Buf)
			}
			if v.k.Buf(x.Buf).ReadOnly {
				return fmt.Errorf("kpl: %s: store to read-only buffer %q", v.k.Name, x.Buf)
			}
			if err := v.expr(x.Idx); err != nil {
				return err
			}
			if err := v.expr(x.Val); err != nil {
				return err
			}
		case *AtomicAddStmt:
			if v.k.Buf(x.Buf) == nil {
				return fmt.Errorf("kpl: %s: atomic on undeclared buffer %q", v.k.Name, x.Buf)
			}
			if v.k.Buf(x.Buf).ReadOnly {
				return fmt.Errorf("kpl: %s: atomic on read-only buffer %q", v.k.Name, x.Buf)
			}
			if err := v.expr(x.Idx); err != nil {
				return err
			}
			if err := v.expr(x.Val); err != nil {
				return err
			}
		case *ForStmt:
			if x.Label == "" {
				v.nAuto++
				x.Label = fmt.Sprintf("loop%d", v.nAuto)
			}
			if v.labels[x.Label] {
				return fmt.Errorf("kpl: %s: duplicate loop label %q", v.k.Name, x.Label)
			}
			v.labels[x.Label] = true
			if x.Var == "" {
				return fmt.Errorf("kpl: %s: loop %q with empty variable", v.k.Name, x.Label)
			}
			if err := v.expr(x.Start); err != nil {
				return err
			}
			if err := v.expr(x.End); err != nil {
				return err
			}
			if err := v.stmts(x.Body, loopDepth+1); err != nil {
				return err
			}
		case *IfStmt:
			if err := v.expr(x.Cond); err != nil {
				return err
			}
			if err := v.stmts(x.Then, loopDepth); err != nil {
				return err
			}
			if err := v.stmts(x.Else, loopDepth); err != nil {
				return err
			}
		case *BreakStmt:
			if loopDepth == 0 {
				return fmt.Errorf("kpl: %s: break outside loop", v.k.Name)
			}
		default:
			return fmt.Errorf("kpl: %s: unknown statement %T", v.k.Name, s)
		}
	}
	return nil
}

func (v *validator) expr(e Expr) error {
	switch x := e.(type) {
	case *Const, *TIDExpr, *NTExpr, *VarExpr:
		return nil
	case *ParamExpr:
		if v.k.Param(x.Name) == nil {
			return fmt.Errorf("kpl: %s: undeclared parameter %q", v.k.Name, x.Name)
		}
		return nil
	case *BinExpr:
		if err := v.expr(x.A); err != nil {
			return err
		}
		return v.expr(x.B)
	case *UnExpr:
		return v.expr(x.A)
	case *LoadExpr:
		if v.k.Buf(x.Buf) == nil {
			return fmt.Errorf("kpl: %s: load from undeclared buffer %q", v.k.Name, x.Buf)
		}
		return v.expr(x.Idx)
	case *CastExpr:
		return v.expr(x.A)
	case *SelExpr:
		if err := v.expr(x.Cond); err != nil {
			return err
		}
		if err := v.expr(x.A); err != nil {
			return err
		}
		return v.expr(x.B)
	case nil:
		return fmt.Errorf("kpl: %s: nil expression", v.k.Name)
	default:
		return fmt.Errorf("kpl: %s: unknown expression %T", v.k.Name, e)
	}
}
