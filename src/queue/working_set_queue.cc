#include "queue/working_set_queue.hh"

namespace commguard
{

WorkingSetQueue::WorkingSetQueue(std::string name, std::size_t capacity,
                                 unsigned sub_regions,
                                 RecyclePool<QueueWord> *recycle)
    : RingQueue(std::move(name), capacity, recycle),
      _worksetWords(this->capacity() / (sub_regions ? sub_regions : 1))
{
    if (_worksetWords == 0)
        _worksetWords = 1;
}

} // namespace commguard
