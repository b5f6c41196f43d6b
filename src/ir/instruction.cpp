#include "ir/instruction.hpp"

namespace nol::ir {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Alloca: return "alloca";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::SDiv: return "sdiv";
      case Opcode::UDiv: return "udiv";
      case Opcode::SRem: return "srem";
      case Opcode::URem: return "urem";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::LShr: return "lshr";
      case Opcode::AShr: return "ashr";
      case Opcode::FAdd: return "fadd";
      case Opcode::FSub: return "fsub";
      case Opcode::FMul: return "fmul";
      case Opcode::FDiv: return "fdiv";
      case Opcode::ICmpEq: return "icmp.eq";
      case Opcode::ICmpNe: return "icmp.ne";
      case Opcode::ICmpSlt: return "icmp.slt";
      case Opcode::ICmpSle: return "icmp.sle";
      case Opcode::ICmpSgt: return "icmp.sgt";
      case Opcode::ICmpSge: return "icmp.sge";
      case Opcode::ICmpUlt: return "icmp.ult";
      case Opcode::ICmpUle: return "icmp.ule";
      case Opcode::ICmpUgt: return "icmp.ugt";
      case Opcode::ICmpUge: return "icmp.uge";
      case Opcode::FCmpEq: return "fcmp.eq";
      case Opcode::FCmpNe: return "fcmp.ne";
      case Opcode::FCmpLt: return "fcmp.lt";
      case Opcode::FCmpLe: return "fcmp.le";
      case Opcode::FCmpGt: return "fcmp.gt";
      case Opcode::FCmpGe: return "fcmp.ge";
      case Opcode::Trunc: return "trunc";
      case Opcode::ZExt: return "zext";
      case Opcode::SExt: return "sext";
      case Opcode::FPToSI: return "fptosi";
      case Opcode::SIToFP: return "sitofp";
      case Opcode::FPTrunc: return "fptrunc";
      case Opcode::FPExt: return "fpext";
      case Opcode::Bitcast: return "bitcast";
      case Opcode::PtrToInt: return "ptrtoint";
      case Opcode::IntToPtr: return "inttoptr";
      case Opcode::FieldAddr: return "fieldaddr";
      case Opcode::IndexAddr: return "indexaddr";
      case Opcode::Call: return "call";
      case Opcode::CallIndirect: return "call.indirect";
      case Opcode::Br: return "br";
      case Opcode::CondBr: return "condbr";
      case Opcode::Switch: return "switch";
      case Opcode::Ret: return "ret";
      case Opcode::MachineAsm: return "asm";
      case Opcode::Unreachable: return "unreachable";
    }
    return "?";
}

bool
isTerminator(Opcode op)
{
    switch (op) {
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Switch:
      case Opcode::Ret:
      case Opcode::Unreachable:
        return true;
      default:
        return false;
    }
}

} // namespace nol::ir
