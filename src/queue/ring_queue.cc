#include "queue/ring_queue.hh"

namespace commguard
{

namespace
{

std::size_t
roundUpPow2(std::size_t x)
{
    std::size_t p = 2;
    while (p < x)
        p <<= 1;
    return p;
}

} // namespace

RingQueue::RingQueue(std::string name, std::size_t capacity,
                     RecyclePool<QueueWord> *recycle)
    : QueueBase(std::move(name)),
      _capacity(capacity < 1 ? 1 : capacity),
      _recycle(recycle),
      _buffer(recycle != nullptr
                  ? recycle->acquire(roundUpPow2(_capacity))
                  : std::vector<QueueWord>(roundUpPow2(_capacity))),
      _mask(static_cast<Word>(_buffer.size() - 1))
{
}

RingQueue::~RingQueue()
{
    if (_recycle != nullptr)
        _recycle->release(std::move(_buffer));
}

} // namespace commguard
