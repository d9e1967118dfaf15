package channel
