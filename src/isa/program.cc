#include "isa/program.hh"

#include <sstream>
#include <string>

namespace commguard::isa
{

namespace
{

bool
usesRd(Op op)
{
    switch (op) {
      case Op::Nop:
      case Op::Halt:
      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
      case Op::Bltu: case Op::Bgeu: case Op::Jmp:
      case Op::Sw:
      case Op::Push:
      case Op::ScopeEnter:
      case Op::ScopeExit:
        return false;
      default:
        return true;
    }
}

} // namespace

ValidationResult
validate(const Program &prog)
{
    auto fail = [&](const std::string &why, std::size_t pc) {
        std::ostringstream os;
        os << prog.name << "[" << pc << "]: " << why;
        return ValidationResult{false, os.str()};
    };

    if (prog.memWords == 0 || prog.memWords > maxMemWords) {
        return {false, prog.name + ": local memory of " +
                           std::to_string(prog.memWords) +
                           " words is outside 1.." +
                           std::to_string(maxMemWords)};
    }
    if (prog.data.size() > prog.memWords)
        return {false, prog.name + ": data segment exceeds local memory"};

    for (std::size_t pc = 0; pc < prog.code.size(); ++pc) {
        const Inst &inst = prog.code[pc];
        if (inst.op >= Op::NumOps)
            return fail("invalid opcode", pc);
        if (inst.rd >= numRegs || inst.rs1 >= numRegs ||
            inst.rs2 >= numRegs) {
            return fail("register index out of range", pc);
        }
        if (isControlOp(inst.op)) {
            if (inst.target < 0 ||
                static_cast<std::size_t>(inst.target) >=
                    prog.code.size()) {
                return fail("branch target outside code", pc);
            }
        }
        if (inst.op == Op::Pop &&
            inst.imm >= static_cast<Word>(prog.numInPorts)) {
            return fail("pop references undeclared input port", pc);
        }
        if (inst.op == Op::Push &&
            inst.imm >= static_cast<Word>(prog.numOutPorts)) {
            return fail("push references undeclared output port", pc);
        }
        if (inst.op == Op::ScopeEnter || inst.op == Op::ScopeExit) {
            if (inst.imm >= prog.scopes.size())
                return fail("scope index out of range", pc);
            if (inst.op == Op::ScopeEnter) {
                const std::int32_t exit_pc =
                    prog.scopes[inst.imm].exitPc;
                if (exit_pc < 0 ||
                    static_cast<std::size_t>(exit_pc) >=
                        prog.code.size() ||
                    prog.code[exit_pc].op != Op::ScopeExit) {
                    return fail("scope exit PC invalid", pc);
                }
            }
        }
        if (usesRd(inst.op) && inst.rd == 0 && inst.op != Op::Nop) {
            // Writes to R0 are legal no-ops but usually indicate an
            // assembler bug in kernels; flag them.
            return fail("instruction writes hardwired R0", pc);
        }
    }
    return {};
}

std::string
disassemble(const Inst &inst)
{
    std::ostringstream os;
    os << opName(inst.op);
    // Appending keeps GCC 12's -O3 -Wrestrict false positive on
    // `"r" + std::to_string(...)` out of Release builds.
    auto r = [](Reg reg) {
        std::string name = "r";
        name += std::to_string(int(reg));
        return name;
    };
    switch (inst.op) {
      case Op::Nop:
      case Op::Halt:
        break;
      case Op::Li:
        os << " " << r(inst.rd) << ", " << inst.imm;
        break;
      case Op::Addi: case Op::Andi: case Op::Ori: case Op::Xori:
      case Op::Slli: case Op::Srli: case Op::Srai:
        os << " " << r(inst.rd) << ", " << r(inst.rs1) << ", "
           << static_cast<SWord>(inst.imm);
        break;
      case Op::Lw:
        os << " " << r(inst.rd) << ", " << static_cast<SWord>(inst.imm)
           << "(" << r(inst.rs1) << ")";
        break;
      case Op::Sw:
        os << " " << r(inst.rs2) << ", " << static_cast<SWord>(inst.imm)
           << "(" << r(inst.rs1) << ")";
        break;
      case Op::Push:
        os << " port" << inst.imm << ", " << r(inst.rs2);
        break;
      case Op::ScopeEnter:
      case Op::ScopeExit:
        os << " scope" << inst.imm;
        break;
      case Op::Pop:
        os << " " << r(inst.rd) << ", port" << inst.imm;
        break;
      case Op::Jmp:
        os << " @" << inst.target;
        break;
      case Op::Beq: case Op::Bne: case Op::Blt: case Op::Bge:
      case Op::Bltu: case Op::Bgeu:
        os << " " << r(inst.rs1) << ", " << r(inst.rs2) << ", @"
           << inst.target;
        break;
      case Op::Fsqrt: case Op::Fabs: case Op::Fneg:
      case Op::Cvtif: case Op::Cvtfi:
        os << " " << r(inst.rd) << ", " << r(inst.rs1);
        break;
      default:
        os << " " << r(inst.rd) << ", " << r(inst.rs1) << ", "
           << r(inst.rs2);
        break;
    }
    return os.str();
}

std::string
disassemble(const Program &prog)
{
    std::ostringstream os;
    os << "# program " << prog.name << " (" << prog.code.size()
       << " insts, " << prog.data.size() << " data words, "
       << prog.numInPorts << " in, " << prog.numOutPorts << " out)\n";
    for (std::size_t pc = 0; pc < prog.code.size(); ++pc)
        os << pc << ":\t" << disassemble(prog.code[pc]) << "\n";
    return os.str();
}

} // namespace commguard::isa
