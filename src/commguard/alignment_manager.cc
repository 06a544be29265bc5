#include "commguard/alignment_manager.hh"

namespace commguard
{

const char *
amStateName(AmState state)
{
    switch (state) {
      case AmState::RcvCmp: return "RcvCmp";
      case AmState::ExpHdr: return "ExpHdr";
      case AmState::DiscFr: return "DiscFr";
      case AmState::Disc: return "Disc";
      case AmState::Pdg: return "Pdg";
      default: return "???";
    }
}

void
AlignmentManager::onNewFrameComputation(FrameId active_fc)
{
    fsmOp();
    switch (_state) {
      case AmState::RcvCmp:
        // Table 1: RcvCmp, "New frame computation started" -> ExpHdr.
        _state = AmState::ExpHdr;
        break;
      case AmState::Pdg:
        // Table 1: Pdg, "New frame computation matched header" ->
        // RcvCmp. The matching header was already consumed when Pdg
        // was entered, so delivery resumes directly with items.
        if (_pendingHeader != endOfComputationId &&
            active_fc >= _pendingHeader) {
            _state = AmState::RcvCmp;
        }
        break;
      case AmState::ExpHdr:
      case AmState::DiscFr:
      case AmState::Disc:
        // No transition listed in Table 1: the realignment in progress
        // continues; header comparisons below use the new active-fc.
        break;
    }
}

} // namespace commguard
