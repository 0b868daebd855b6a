package contingency

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The one CPU probe (bitvec's cpuHasAVX512VPOPCNTDQ) checks AVX512F and
// AVX512_VPOPCNTDQ and nothing else, and every AVX-512 body in the module
// runs where it says yes. An instruction from another AVX-512 subset would
// fault on a CPU that has those two and not it. These lists name what the
// repository's assembly must not use without first extending the probe.

// unprobedMnemonics are instructions of AVX512BW, DQ, VBMI, VBMI2,
// BITALG, VNNI, IFMA, CD and GFNI, by exact name or prefix (a trailing
// "*").
var unprobedMnemonics = strings.Fields(`
	KMOVB KMOVD KMOVQ KADDW KTESTW
	VPERMB VPERMI2B VPERMT2B VPMULTISHIFTQB VPERMW VPERMI2W VPERMT2W
	VPMULLQ VPMOVM2* VPMOVB2M VPMOVW2M VPMOVD2M VPMOVQ2M
	VEXTRACTI64X2 VINSERTI64X2 VEXTRACTI32X8 VINSERTI32X8
	VEXTRACTF64X2 VINSERTF64X2 VEXTRACTF32X8 VINSERTF32X8
	VBROADCASTI64X2 VBROADCASTI32X8 VBROADCASTF64X2 VBROADCASTF32X8
	VPCOMPRESSB VPCOMPRESSW VPEXPANDB VPEXPANDW VPSHLD* VPSHRD*
	VPOPCNTB VPOPCNTW VPSHUFBITQMB VPDPBUSD* VPDPWSSD* VPMADD52*
	VPCONFLICT* VPLZCNT* VRANGE* VREDUCE* VFPCLASS*
	VMOVDQU8 VMOVDQU16 VDBPSADBW
	VCVTQQ2* VCVTUQQ2* VCVTPD2QQ VCVTPD2UQQ VCVTPS2QQ VCVTPS2UQQ
	VCVTTPD2QQ VCVTTPD2UQQ VCVTTPS2QQ VCVTTPS2UQQ
	GF2P8*
`)

// dqOnZ are instructions that are AVX-512 DQ on 512-bit registers.
var dqOnZ = strings.Fields(`VANDPD VANDNPD VANDPS VANDNPS VORPD VORPS VXORPD VXORPS`)

// evexOnly are instructions with no VEX form: on xmm or ymm registers
// they need AVX512VL.
var evexOnly = strings.Fields(`
	VPTERNLOGD VPTERNLOGQ VPOPCNTD VPOPCNTQ VPANDD VPANDQ VPANDND VPANDNQ
	VPORD VPORQ VPXORD VPXORQ VMOVDQA32 VMOVDQA64 VMOVDQU32 VMOVDQU64
	VPERMT2* VPERMI2* VPROL* VPROR* VPSRAQ VPSRAVQ
	VPMAXSQ VPMAXUQ VPMINSQ VPMINUQ VPABSQ VPTESTM* VPTESTNM*
	VPCOMPRESS* VPEXPAND* VALIGND VALIGNQ VSHUFI32X4 VSHUFI64X2
	VSHUFF32X4 VSHUFF64X2 VPBLENDM* VBLENDM* VPMOVQ* VPMOVDB VPMOVDW
	VPMOVS* VPMOVUS* VPSCATTER* VSCATTER* VEXTRACTI32X4 VEXTRACTI64X4
	VEXTRACTF32X4 VEXTRACTF64X4 VINSERTI32X4 VINSERTI64X4 VINSERTF32X4
	VINSERTF64X4 VPCMPD VPCMPUD VPCMPQ VPCMPUQ VRCP14* VRSQRT14*
	VGETEXP* VGETMANT* VSCALEF* VFIXUPIMM* VRNDSCALE* VPBROADCASTM*
`)

// dwordQwordNarrowing are the AVX512F truncations to bytes and words,
// which end like byte and word operations.
var dwordQwordNarrowing = regexp.MustCompile(`^VPMOV(S|US)?[DQ][BW]$`)

var (
	zReg      = regexp.MustCompile(`\bZ([0-9]|[12][0-9]|3[01])\b`)
	highXYReg = regexp.MustCompile(`\b[XY](1[6-9]|2[0-9]|3[01])\b`)
	kReg      = regexp.MustCompile(`\bK[0-7]\b`)
	xyReg     = regexp.MustCompile(`\b[XY]([0-9]|[12][0-9]|3[01])\b`)
	gpReg     = regexp.MustCompile(`^(R[0-9]+|[A-D]X|SI|DI|BP|SP)$`)
	mnemonic  = regexp.MustCompile(`^[A-Z][A-Z0-9]*(\.[A-Z.]+)?$`)
)

func matches(list []string, name string) bool {
	for _, m := range list {
		if p, ok := strings.CutSuffix(m, "*"); ok && strings.HasPrefix(name, p) || m == name {
			return true
		}
	}
	return false
}

// unprobed says why an instruction needs more than AVX512F and VPOPCNTDQ,
// or returns "".
func unprobed(name, operands string) string {
	onZ := zReg.MatchString(operands)
	switch {
	case matches(unprobedMnemonics, name):
		return "an AVX-512 subset the probe does not check"
	case strings.HasPrefix(name, "K") && len(name) > 2 && strings.ContainsAny(name[len(name)-1:], "BDQ"):
		return "an opmask instruction on bytes, dwords or qwords (AVX512BW/DQ)"
	case onZ && matches(dqOnZ, name):
		return "AVX512DQ on a 512-bit register"
	case onZ && (name == "VPALIGNR" || name == "VPSLLDQ" || name == "VPSRLDQ"):
		return "AVX512BW on a 512-bit register"
	case onZ && strings.HasPrefix(name, "VP") && strings.ContainsAny(name[len(name)-1:], "BW") && !dwordQwordNarrowing.MatchString(name):
		return "a byte or word element operation on a 512-bit register (AVX512BW)"
	case onZ:
		return ""
	case highXYReg.MatchString(operands):
		return "an xmm or ymm register past 15, which only EVEX encodes (AVX512VL)"
	case !strings.HasPrefix(name, "K") && kReg.MatchString(operands):
		return "an opmask on xmm or ymm registers (AVX512VL)"
	case matches(evexOnly, name) && xyReg.MatchString(operands):
		return "an EVEX-only instruction on xmm or ymm registers (AVX512VL)"
	case (name == "VPBROADCASTD" || name == "VPBROADCASTQ") && gpReg.MatchString(strings.TrimSpace(strings.Split(operands, ",")[0])):
		return "a broadcast from a general register, which only EVEX encodes (AVX512VL on xmm or ymm)"
	}
	return ""
}

// asmMacro is a #define of an assembly file.
type asmMacro struct {
	params []string
	body   string
}

var macroDef = regexp.MustCompile(`^#define\s+([A-Za-z_][A-Za-z0-9_]*)(\(([^)]*)\))?\s*(.*)$`)

// readAsm returns an assembly file's logical lines (continuations joined,
// comments dropped) outside its #defines, and its macros.
func readAsm(t *testing.T, path string) (lines []string, macros map[string]asmMacro) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	macros = make(map[string]asmMacro)
	sc := bufio.NewScanner(f)
	logical := ""
	for sc.Scan() {
		text, _, _ := strings.Cut(sc.Text(), "//")
		text = strings.TrimSpace(text)
		if cont, ok := strings.CutSuffix(text, `\`); ok {
			logical += cont + " "
			continue
		}
		logical += text
		if m := macroDef.FindStringSubmatch(logical); m != nil {
			var params []string
			for _, p := range strings.Split(m[3], ",") {
				if p = strings.TrimSpace(p); p != "" {
					params = append(params, p)
				}
			}
			macros[m[1]] = asmMacro{params, m[4]}
		} else if logical != "" {
			lines = append(lines, logical)
		}
		logical = ""
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, macros
}

var invocation = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)\s*(\((.*)\))?$`)

// expand returns the instructions text stands for, macros expanded.
func expand(text string, macros map[string]asmMacro, depth int) []string {
	var out []string
	for _, inst := range strings.Split(text, ";") {
		inst = strings.TrimSpace(inst)
		m := invocation.FindStringSubmatch(inst)
		mac, ok := asmMacro{}, false
		if m != nil {
			mac, ok = macros[m[1]]
		}
		if !ok || depth > 10 {
			if inst != "" {
				out = append(out, inst)
			}
			continue
		}
		body := mac.body
		args := splitArgs(m[3])
		for i, p := range mac.params {
			if i < len(args) {
				body = regexp.MustCompile(`\b`+regexp.QuoteMeta(p)+`\b`).ReplaceAllLiteralString(body, args[i])
			}
		}
		out = append(out, expand(body, macros, depth+1)...)
	}
	return out
}

// splitArgs splits a macro's arguments at the commas outside parentheses.
func splitArgs(s string) []string {
	var args []string
	depth, start := 0, 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return append(args, strings.TrimSpace(s[start:]))
}

// TestAssemblyStaysInsideTheProbe scans every assembly file of the
// repository, each macro expanded where it is used, for instructions the
// probe does not vouch for, and checks that the probe is the only code
// that asks the CPU: one file issues CPUID. A body that needs another
// instruction (a GFNI transpose, say) must extend bitvec's
// cpuHasAVX512VPOPCNTDQ first, and this test with it.
func TestAssemblyStaysInsideTheProbe(t *testing.T) {
	root := filepath.Join("..", "..")
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".s") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no assembly found")
	}
	checked := 0
	var probes []string // files that issue CPUID
	for _, path := range files {
		lines, macros := readAsm(t, path)
		for _, line := range lines {
			for _, inst := range expand(line, macros, 0) {
				fields := strings.Fields(inst)
				if len(fields) == 0 || !mnemonic.MatchString(fields[0]) {
					continue
				}
				name, _, _ := strings.Cut(fields[0], ".")
				checked++
				if name == "CPUID" && (len(probes) == 0 || probes[len(probes)-1] != path) {
					probes = append(probes, path)
				}
				if why := unprobed(name, strings.Join(fields[1:], " ")); why != "" {
					t.Errorf("%s: %s (in %q): %s", path, inst, line, why)
				}
			}
		}
	}
	if checked < 1000 {
		t.Errorf("checked %d instructions in %d files; the scanner is not reading the assembly", checked, len(files))
	}
	if want := filepath.Join(root, "internal", "bitvec", "cpu_amd64.s"); len(probes) != 1 || probes[0] != want {
		t.Errorf("CPUID issued in %v; the module's one probe is %s", probes, want)
	}
}

// TestUnprobedSpotsEachSubset: the scanner's rules catch an instruction of
// each subset it stands guard against, and pass the forms the repository's
// bodies use.
func TestUnprobedSpotsEachSubset(t *testing.T) {
	for _, tc := range []struct {
		inst string
		bad  bool
	}{
		{"KMOVB AX, K1", true},
		{"KORTESTQ K1, K1", true},
		{"KADDW K1, K2, K3", true},
		{"VPERMB Z1, Z2, Z3", true},
		{"GF2P8AFFINEQB $0, Z1, Z2, Z3", true},
		{"VPSHUFB Z1, Z2, Z3", true},
		{"VPADDW Z1, Z2, Z3", true},
		{"VPALIGNR $8, Z1, Z2, Z3", true},
		{"VPMULLQ Z1, Z2, Z3", true},
		{"VXORPD Z1, Z2, Z3", true},
		{"VPTERNLOGQ $0x96, Y1, Y2, Y3", true},
		{"VPOPCNTQ X1, X2", true},
		{"VMOVDQU Y16, (DI)", true},
		{"VPADDQ Y1, Y2, K1, Y3", true},
		{"VPBROADCASTD AX, Y1", true},
		{"VPSHUFB Y1, Y2, Y3", false}, // AVX2
		{"VPMOVQD Z4, Y4", false},
		{"VPMOVQB Z4, X4", false},
		{"VEXTRACTI64X4 $1, Z4, Y4", false},
		{"VPGATHERDQ (BX)(Y14*8), K1, Z0", false},
		{"VPADDQ Y15, Y14, Y14", false},
		{"KMOVW AX, K1", false},
		{"KORTESTW K6, K6", false},
		{"VPBROADCASTD X8, Z16", false},
		{"VPBROADCASTD 4(SI), Y2", false},
		{"VPTERNLOGQ $0x96, Z1, Z2, Z3", false},
	} {
		fields := strings.Fields(tc.inst)
		name, _, _ := strings.Cut(fields[0], ".")
		if why := unprobed(name, strings.Join(fields[1:], " ")); (why != "") != tc.bad {
			t.Errorf("%s: flagged %q, want flagged = %v", tc.inst, why, tc.bad)
		}
	}
}
