// Fixture stand-in for net/message.h.
enum class MessageTag : unsigned char {
  kPing = 1,
  kPong = 2,
  kStop = 4,
};
