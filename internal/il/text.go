package il

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// asmBufPool recycles assembly buffers, so the working buffer is not
// reallocated per call.
var asmBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// Assemble renders the kernel as IL-style assembly text. The format round
// trips through Parse, which the property tests rely on. The output is
// pinned byte-for-byte by TestAssembleGolden; the single allocation per
// call is the returned string itself.
func Assemble(k *Kernel) string {
	bp := asmBufPool.Get().(*[]byte)
	b := AppendAssemble((*bp)[:0], k)
	s := string(b)
	*bp = b
	asmBufPool.Put(bp)
	return s
}

// AppendAssemble appends the kernel's assembly text to dst and returns the
// extended slice. It is the allocation-free core of Assemble.
func AppendAssemble(dst []byte, k *Kernel) []byte {
	if k.Mode == Compute {
		dst = append(dst, "il_cs_2_0 ; kernel "...)
	} else {
		dst = append(dst, "il_ps_2_0 ; kernel "...)
	}
	dst = append(dst, k.Name...)
	dst = append(dst, "\ndcl_type "...)
	dst = append(dst, k.Type.String()...)
	if k.Mode == Pixel {
		dst = append(dst, "\ndcl_input_position_interp(linear_noperspective) vWinCoord0\n"...)
	} else {
		dst = append(dst, "\ndcl_thread_id vTid\n"...)
	}
	for i := 0; i < k.NumInputs; i++ {
		if k.InputSpace == TextureSpace {
			dst = append(dst, "dcl_resource_id("...)
			dst = strconv.AppendInt(dst, int64(i), 10)
			dst = append(dst, ")_type(2d)_fmt("...)
			dst = append(dst, k.Type.String()...)
			dst = append(dst, ")\n"...)
		} else {
			dst = appendRawUAV(dst, i, k.Type, " ; input buffer\n")
		}
	}
	for i := 0; i < k.NumOutputs; i++ {
		if k.OutSpace == TextureSpace {
			dst = append(dst, "dcl_output o"...)
			dst = strconv.AppendInt(dst, int64(i), 10)
			dst = append(dst, '\n')
		} else {
			dst = appendRawUAV(dst, k.NumInputs+i, k.Type, " ; output buffer\n")
		}
	}
	if k.NumConsts > 0 {
		dst = append(dst, "dcl_cb cb0["...)
		dst = strconv.AppendInt(dst, int64(k.NumConsts), 10)
		dst = append(dst, "]\n"...)
	}
	for i := range k.Code {
		dst = appendInstr(dst, k.Code[i])
		dst = append(dst, '\n')
	}
	dst = append(dst, "end\n"...)
	return dst
}

func appendRawUAV(dst []byte, id int, t DataType, trailer string) []byte {
	dst = append(dst, "dcl_raw_uav_id("...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, ")_fmt("...)
	dst = append(dst, t.String()...)
	dst = append(dst, ')')
	dst = append(dst, trailer...)
	return dst
}

// Parse reads assembly produced by Assemble back into a Kernel. It is a
// line-oriented parser: declarations first, then instructions, then "end".
func Parse(src string) (*Kernel, error) {
	k := &Kernel{}
	sawHeader := false
	sawEnd := false
	sc := bufio.NewScanner(strings.NewReader(src))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.Index(line, ";"); i >= 0 {
			if strings.HasPrefix(strings.TrimSpace(line[i:]), "; kernel ") {
				k.Name = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line[i:]), "; kernel"))
			}
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if sawEnd {
			return nil, fmt.Errorf("il: line %d: content after end", lineNo)
		}
		fields := strings.Fields(line)
		head := fields[0]
		switch {
		case head == "il_ps_2_0" || head == "il_cs_2_0":
			if sawHeader {
				return nil, fmt.Errorf("il: line %d: duplicate header", lineNo)
			}
			sawHeader = true
			if head == "il_cs_2_0" {
				k.Mode = Compute
			}
		case head == "dcl_type":
			if len(fields) != 2 {
				return nil, fmt.Errorf("il: line %d: malformed dcl_type", lineNo)
			}
			switch fields[1] {
			case "float":
				k.Type = Float
			case "float4":
				k.Type = Float4
			default:
				return nil, fmt.Errorf("il: line %d: unknown data type %q", lineNo, fields[1])
			}
		case strings.HasPrefix(head, "dcl_input_position"), head == "dcl_thread_id":
			// Coordinate register declarations carry no extra state.
		case strings.HasPrefix(head, "dcl_resource_id("):
			k.NumInputs++
			k.InputSpace = TextureSpace
		case strings.HasPrefix(head, "dcl_raw_uav_id("):
			// Raw UAVs are inputs until outputs start being declared; the
			// assembler writes inputs before outputs, and instruction
			// stream validation settles the split. Track via comment-free
			// heuristic: count them as inputs now, fix up below from the
			// instruction stream.
			k.NumInputs++
			k.InputSpace = GlobalSpace
		case strings.HasPrefix(head, "dcl_output"):
			k.NumOutputs++
			k.OutSpace = TextureSpace
		case head == "dcl_cb":
			if len(fields) != 2 {
				return nil, fmt.Errorf("il: line %d: malformed dcl_cb", lineNo)
			}
			n, err := parseBracketCount(fields[1])
			if err != nil {
				return nil, fmt.Errorf("il: line %d: %v", lineNo, err)
			}
			k.NumConsts = n
		case head == "end":
			sawEnd = true
		default:
			in, err := parseInstr(fields)
			if err != nil {
				return nil, fmt.Errorf("il: line %d: %v", lineNo, err)
			}
			k.Code = append(k.Code, in)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("il: scanning source: %v", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("il: missing il_ps/il_cs header")
	}
	if !sawEnd {
		return nil, fmt.Errorf("il: missing end")
	}
	fixupUAVSplit(k)
	return k, nil
}

// fixupUAVSplit repairs NumInputs/NumOutputs for global-memory kernels: the
// assembler declares input UAVs then output UAVs with consecutive ids, and
// the instruction stream tells us how many of each there really are.
func fixupUAVSplit(k *Kernel) {
	maxStore := -1
	anyStore := false
	globalOut := false
	for _, in := range k.Code {
		// Loads settle the input space authoritatively; a kernel with
		// texture inputs and UAV outputs would otherwise have had its
		// InputSpace clobbered by the output declarations.
		if in.Op == OpSample {
			k.InputSpace = TextureSpace
		}
		if in.Op == OpGlobalLoad {
			k.InputSpace = GlobalSpace
		}
		if in.Op.IsStore() {
			anyStore = true
			if in.Res > maxStore {
				maxStore = in.Res
			}
			if in.Op == OpGlobalStore {
				globalOut = true
			}
		}
	}
	if !anyStore {
		return
	}
	if globalOut {
		k.OutSpace = GlobalSpace
		// Output UAV declarations were miscounted as inputs.
		k.NumOutputs = maxStore + 1
		k.NumInputs -= k.NumOutputs
	}
}

func parseBracketCount(tok string) (int, error) {
	open := strings.Index(tok, "[")
	close := strings.Index(tok, "]")
	if open < 0 || close < open {
		return 0, fmt.Errorf("malformed count %q", tok)
	}
	return strconv.Atoi(tok[open+1 : close])
}

func parseReg(tok string) (Reg, error) {
	tok = strings.TrimSuffix(tok, ",")
	if !strings.HasPrefix(tok, "r") {
		return NoReg, fmt.Errorf("expected register, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil {
		return NoReg, fmt.Errorf("bad register %q: %v", tok, err)
	}
	return Reg(n), nil
}

func parseResSuffix(head, prefix string) (int, error) {
	rest := strings.TrimPrefix(head, prefix)
	return parseParenInt(rest)
}

func parseParenInt(s string) (int, error) {
	open := strings.Index(s, "(")
	close := strings.Index(s, ")")
	if open < 0 || close < open {
		return 0, fmt.Errorf("malformed resource reference %q", s)
	}
	return strconv.Atoi(s[open+1 : close])
}

func parseInstr(fields []string) (Instr, error) {
	head := fields[0]
	switch {
	case strings.HasPrefix(head, "sample_resource"):
		if len(fields) < 2 {
			return Instr{}, fmt.Errorf("%s needs a destination register", head)
		}
		res, err := parseResSuffix(head, "sample_resource")
		if err != nil {
			return Instr{}, err
		}
		dst, err := parseReg(fields[1])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpSample, Dst: dst, SrcA: NoReg, SrcB: NoReg, Res: res}, nil
	case strings.HasPrefix(head, "gload_buffer"):
		if len(fields) < 2 {
			return Instr{}, fmt.Errorf("%s needs a destination register", head)
		}
		res, err := parseResSuffix(head, "gload_buffer")
		if err != nil {
			return Instr{}, err
		}
		dst, err := parseReg(fields[1])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpGlobalLoad, Dst: dst, SrcA: NoReg, SrcB: NoReg, Res: res}, nil
	case head == "add" || head == "sub" || head == "mul":
		if len(fields) != 4 {
			return Instr{}, fmt.Errorf("%s needs dst and two sources", head)
		}
		dst, err := parseReg(fields[1])
		if err != nil {
			return Instr{}, err
		}
		a, err := parseReg(fields[2])
		if err != nil {
			return Instr{}, err
		}
		b, err := parseReg(fields[3])
		if err != nil {
			return Instr{}, err
		}
		op := OpAdd
		switch head {
		case "sub":
			op = OpSub
		case "mul":
			op = OpMul
		}
		return Instr{Op: op, Dst: dst, SrcA: a, SrcB: b, Res: -1}, nil
	case head == "addc" || head == "mulc":
		if len(fields) != 4 {
			return Instr{}, fmt.Errorf("%s needs dst, source and constant", head)
		}
		dst, err := parseReg(fields[1])
		if err != nil {
			return Instr{}, err
		}
		a, err := parseReg(fields[2])
		if err != nil {
			return Instr{}, err
		}
		c, err := parseBracketCount(fields[3])
		if err != nil {
			return Instr{}, fmt.Errorf("bad constant reference %q: %v", fields[3], err)
		}
		op := OpAddC
		if head == "mulc" {
			op = OpMulC
		}
		return Instr{Op: op, Dst: dst, SrcA: a, SrcB: NoReg, Res: c}, nil
	case head == "mov" || head == "rcp" || head == "rsq":
		if len(fields) != 3 {
			return Instr{}, fmt.Errorf("%s needs dst and one source", head)
		}
		dst, err := parseReg(fields[1])
		if err != nil {
			return Instr{}, err
		}
		a, err := parseReg(fields[2])
		if err != nil {
			return Instr{}, err
		}
		op := OpMov
		switch head {
		case "rcp":
			op = OpRcp
		case "rsq":
			op = OpRsq
		}
		return Instr{Op: op, Dst: dst, SrcA: a, SrcB: NoReg, Res: -1}, nil
	case head == "export":
		if len(fields) != 3 {
			return Instr{}, fmt.Errorf("export needs an output and a source")
		}
		oTok := strings.TrimSuffix(fields[1], ",")
		if !strings.HasPrefix(oTok, "o") {
			return Instr{}, fmt.Errorf("export target %q is not an output", oTok)
		}
		res, err := strconv.Atoi(oTok[1:])
		if err != nil {
			return Instr{}, fmt.Errorf("bad output %q: %v", oTok, err)
		}
		src, err := parseReg(fields[2])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpExport, Dst: NoReg, SrcA: src, SrcB: NoReg, Res: res}, nil
	case strings.HasPrefix(head, "gstore_buffer"):
		if len(fields) < 2 {
			return Instr{}, fmt.Errorf("%s needs a source register", head)
		}
		res, err := parseResSuffix(head, "gstore_buffer")
		if err != nil {
			return Instr{}, err
		}
		src, err := parseReg(fields[1])
		if err != nil {
			return Instr{}, err
		}
		return Instr{Op: OpGlobalStore, Dst: NoReg, SrcA: src, SrcB: NoReg, Res: res}, nil
	}
	return Instr{}, fmt.Errorf("unknown instruction %q", head)
}
