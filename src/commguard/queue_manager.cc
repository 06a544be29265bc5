#include "commguard/queue_manager.hh"

#include <string>

#include "common/logging.hh"

namespace commguard
{

void
QueueManager::headerCheckFailed(const QueueWord &header, EccStatus status)
{
    std::string msg = "QueueManager::checkHeader: header of frame ";
    msg += std::to_string(header.value);
    msg += status == EccStatus::Corrected ? " needed an ECC correction"
                                          : " has an uncorrectable ECC error";
    msg += "; headers are never corrupted";
    panic(msg);
}

} // namespace commguard
