#!/usr/bin/env bash
# Fails if an ISA GEMM micro-kernel object holds a fused multiply-add.
#
#   tests/check_no_fma.sh <object files...>
#
# The AVX2 and AVX-512 kernels (src/tensor/gemm_avx2.cc, gemm_avx512.cc)
# must round every product and every sum separately, like the reference
# loops; one vfmadd would round once instead and break their bit identity
# (DESIGN.md §9.1). Of the given objects (ctest passes every object of
# kt_tensor), the gemm_avx2 and gemm_avx512 ones are disassembled: each
# must contain vmulps and no vfmadd/vfmsub/vfnmadd/vfnmsub. Exits 77, which
# ctest reports as skipped, when objdump is not installed.
set -euo pipefail

if ! command -v objdump > /dev/null 2>&1; then
  echo "objdump not found; skipping"
  exit 77
fi

checked=0
for obj in "$@"; do
  case "$(basename "$obj")" in
    gemm_avx2.cc.o | gemm_avx512.cc.o) ;;
    *) continue ;;
  esac
  asm="$(objdump -d --no-show-raw-insn "$obj")"
  if fused="$(grep -Ei 'vfn?m(add|sub)' <<< "$asm")"; then
    echo "FAIL: $obj contains fused multiply-adds:"
    head -n 5 <<< "$fused"
    exit 1
  fi
  if ! grep -q 'vmulps' <<< "$asm"; then
    echo "FAIL: $obj has no vmulps; not the kernel this check expects"
    exit 1
  fi
  echo "ok: $obj"
  checked=$((checked + 1))
done

if [[ "$checked" -ne 2 ]]; then
  echo "FAIL: expected the gemm_avx2 and gemm_avx512 objects, checked $checked"
  exit 1
fi
